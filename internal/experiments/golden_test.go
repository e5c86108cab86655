package experiments

import (
	"encoding/csv"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestQuickFiguresMatchGolden regenerates the Quick figure set without the
// simulator series, as `gprs-experiments -no-sim` writes it, and compares it
// with testdata/quick: the same figures in the order order.txt lists, the
// same headers and x columns byte for byte, and every plotted value within
// 1e-4 relative plus 1e-12 absolute, so a solver change that stays within
// the solve tolerance needs no re-pin.
func TestQuickFiguresMatchGolden(t *testing.T) {
	const golden = "testdata/quick"
	figs, err := Figures("all", Options{})
	if err != nil {
		t.Fatal(err)
	}
	order, err := os.ReadFile(filepath.Join(golden, "order.txt"))
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Fields(string(order))
	var got []string
	for _, fig := range figs {
		got = append(got, fig.ID)
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("figures\n got %v\nwant %v", got, want)
	}

	dir := t.TempDir()
	paths, err := WriteAllCSV(figs, dir)
	if err != nil {
		t.Fatal(err)
	}
	for i, path := range paths {
		compareGoldenCSV(t, want[i], readCSV(t, path), readCSV(t, filepath.Join(golden, want[i]+".csv")))
	}
}

func readCSV(t *testing.T, path string) [][]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rows, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return rows
}

// compareGoldenCSV requires the header row and the first (x) column to match
// exactly and every other cell to match within the golden tolerance.
func compareGoldenCSV(t *testing.T, id string, got, want [][]string) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d rows, want %d", id, len(got), len(want))
		return
	}
	for r := range want {
		if len(got[r]) != len(want[r]) {
			t.Errorf("%s row %d: %d columns, want %d", id, r, len(got[r]), len(want[r]))
			continue
		}
		for c := range want[r] {
			if r == 0 || c == 0 {
				if got[r][c] != want[r][c] {
					t.Errorf("%s row %d column %d: %q, want %q", id, r, c, got[r][c], want[r][c])
				}
				continue
			}
			g, err1 := strconv.ParseFloat(got[r][c], 64)
			w, err2 := strconv.ParseFloat(want[r][c], 64)
			if err1 != nil || err2 != nil || math.Abs(g-w) > 1e-4*math.Abs(w)+1e-12 {
				t.Errorf("%s row %d column %s: %s, want %s", id, r, want[0][c], got[r][c], want[r][c])
			}
		}
	}
}
