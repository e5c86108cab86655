package partition

import (
	"testing"

	"repro/internal/cluster"
)

// FuzzParsePartitionSpec checks the spec parser never panics and that every
// spec it accepts validates and builds a proper Assignment on a small
// topology. Run continuously with:
//
//	go test -run '^$' -fuzz FuzzParsePartitionSpec ./internal/partition -fuzztime 30s
func FuzzParsePartitionSpec(f *testing.F) {
	seeds := []string{
		"locality", "locality:4", "index-range", "index-range:2",
		"locality:1", "index-range:19",
		`{"kind":"locality","groups":3}`,
		`{"kind":"index-range"}`,
		`{"kind":"explicit","explicit":[[0,1,2],[3,4,5,6]]}`,
		`{"kind":"explicit","explicit":[[0],[1],[2],[3],[4],[5],[6]]}`,
		"", "bogus", "locality:", "locality:0", "locality:-1",
		`{"kind":"locality","typo":1}`, `{"kind":`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	topo := cluster.NewHexCluster()
	f.Fuzz(func(t *testing.T, s string) {
		spec, err := ParseSpec(s)
		if err != nil {
			if spec != nil {
				t.Fatalf("ParseSpec(%q) returned spec and error %v", s, err)
			}
			return
		}
		if err := spec.Validate(); err != nil {
			t.Fatalf("ParseSpec(%q) accepted spec failing Validate: %v", s, err)
		}
		a, err := spec.Build(topo, nil, 4)
		if err != nil {
			// Explicit groupings may reference cells beyond the 7-cell
			// topology; that is a Build-time error, not a parser bug.
			return
		}
		if len(a.of) != topo.NumCells() {
			t.Fatalf("ParseSpec(%q): built assignment covers %d cells, want %d", s, len(a.of), topo.NumCells())
		}
		seen := make([]bool, len(a.of))
		for g := 0; g < a.NumGroups(); g++ {
			for _, c := range a.groups[g] {
				if c < 0 || c >= len(seen) || seen[c] {
					t.Fatalf("ParseSpec(%q): invalid assignment %v", s, a)
				}
				seen[c] = true
			}
		}
		for c, ok := range seen {
			if !ok {
				t.Fatalf("ParseSpec(%q): cell %d unassigned in %v", s, c, a)
			}
		}
	})
}
