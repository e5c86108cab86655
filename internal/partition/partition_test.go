package partition

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/cluster"
)

func mustTopo(t *testing.T, cells int) *cluster.Topology {
	t.Helper()
	topo, err := cluster.Preset(cells)
	if err != nil {
		t.Fatalf("Preset(%d): %v", cells, err)
	}
	return topo
}

// checkValid asserts the assignment is a proper partition of numCells cells
// into k non-empty groups.
func checkValid(t *testing.T, a *Assignment, numCells, k int) {
	t.Helper()
	if len(a.of) != numCells {
		t.Fatalf("NumCells = %d, want %d", len(a.of), numCells)
	}
	if a.NumGroups() != k {
		t.Fatalf("NumGroups = %d, want %d (assignment %v)", a.NumGroups(), k, a)
	}
	seen := make([]bool, numCells)
	for g := 0; g < a.NumGroups(); g++ {
		members := a.groups[g]
		if len(members) == 0 {
			t.Fatalf("group %d empty in %v", g, a)
		}
		for _, c := range members {
			if seen[c] {
				t.Fatalf("cell %d in two groups: %v", c, a)
			}
			seen[c] = true
			if a.Of(c) != g {
				t.Fatalf("Of(%d) = %d, want %d", c, a.Of(c), g)
			}
		}
	}
	for c, ok := range seen {
		if !ok {
			t.Fatalf("cell %d unassigned: %v", c, a)
		}
	}
}

func TestFromGroups(t *testing.T) {
	a, err := FromGroups(7, [][]int{{6, 0, 1}, {2, 3}, {4, 5}})
	if err != nil {
		t.Fatalf("FromGroups: %v", err)
	}
	checkValid(t, a, 7, 3)
	if got := a.groups[0]; got[0] != 0 || got[1] != 1 || got[2] != 6 {
		t.Fatalf("group 0 not sorted: %v", got)
	}
	if a.Of(-1) != -1 || a.Of(7) != -1 {
		t.Fatal("Of out of range should return -1")
	}

	bad := []struct {
		name   string
		cells  int
		groups [][]int
	}{
		{"no groups", 7, nil},
		{"empty group", 7, [][]int{{0, 1, 2, 3, 4, 5, 6}, {}}},
		{"out of range", 7, [][]int{{0, 1, 2, 3, 4, 5, 7}}},
		{"negative cell", 7, [][]int{{-1, 0, 1, 2, 3, 4, 5, 6}}},
		{"duplicate", 7, [][]int{{0, 1, 2}, {2, 3, 4, 5, 6}}},
		{"uncovered", 7, [][]int{{0, 1, 2}, {4, 5, 6}}},
		{"zero cells", 0, [][]int{{0}}},
	}
	for _, tc := range bad {
		if _, err := FromGroups(tc.cells, tc.groups); !errors.Is(err, ErrInvalidPartition) {
			t.Errorf("%s: err = %v, want ErrInvalidPartition", tc.name, err)
		}
	}
}

func TestIndexRange(t *testing.T) {
	for _, tc := range []struct{ cells, k int }{
		{7, 1}, {7, 3}, {7, 7}, {19, 4}, {37, 8}, {61, 13},
	} {
		a, err := IndexRange(tc.cells, tc.k)
		if err != nil {
			t.Fatalf("IndexRange(%d,%d): %v", tc.cells, tc.k, err)
		}
		checkValid(t, a, tc.cells, tc.k)
		// Contiguity and the historic i*k/n block formula.
		for c := 0; c < tc.cells; c++ {
			if want := c * tc.k / tc.cells; a.Of(c) != want {
				t.Fatalf("IndexRange(%d,%d): Of(%d) = %d, want %d", tc.cells, tc.k, c, a.Of(c), want)
			}
		}
	}
	// Clamping.
	a, err := IndexRange(5, 99)
	if err != nil {
		t.Fatalf("IndexRange clamp: %v", err)
	}
	checkValid(t, a, 5, 5)
	a, err = IndexRange(5, 0)
	if err != nil {
		t.Fatalf("IndexRange clamp: %v", err)
	}
	checkValid(t, a, 5, 1)
	if _, err := IndexRange(0, 2); !errors.Is(err, ErrInvalidPartition) {
		t.Fatalf("IndexRange(0,2) err = %v", err)
	}
}

func TestLocalityValidAndDeterministic(t *testing.T) {
	for _, cells := range []int{7, 19, 37, 61} {
		topo := mustTopo(t, cells)
		for _, k := range []int{1, 2, 4, 7, cells} {
			a, err := Locality(topo, nil, k)
			if err != nil {
				t.Fatalf("Locality(%d,%d): %v", cells, k, err)
			}
			checkValid(t, a, cells, k)
			b, err := Locality(topo, nil, k)
			if err != nil {
				t.Fatalf("Locality(%d,%d) rerun: %v", cells, k, err)
			}
			if a.String() != b.String() {
				t.Fatalf("Locality(%d,%d) not deterministic:\n%v\n%v", cells, k, a, b)
			}
		}
	}
}

func TestGrowPatchesAreContiguous(t *testing.T) {
	// On connected hex lattices the BFS growth only ever claims frontier
	// cells, so every patch is a connected subgraph. (Locality itself may
	// return the refined index-range candidate instead when that cuts less.)
	for _, cells := range []int{19, 37, 61} {
		topo := mustTopo(t, cells)
		w := normalizeWeights(nil, cells)
		for _, k := range []int{2, 4, 6} {
			of := growPatches(topo, w, k)
			a, err := FromGroups(cells, groupsOf(of, k))
			if err != nil {
				t.Fatalf("growPatches(%d,%d) invalid: %v", cells, k, err)
			}
			for g := 0; g < a.NumGroups(); g++ {
				members := a.groups[g]
				inGroup := make(map[int]bool, len(members))
				for _, c := range members {
					inGroup[c] = true
				}
				// BFS inside the group from its first member.
				seen := map[int]bool{members[0]: true}
				queue := []int{members[0]}
				for len(queue) > 0 {
					c := queue[0]
					queue = queue[1:]
					for i, deg := 0, topo.Degree(c); i < deg; i++ {
						nb := topo.NeighborAt(c, i)
						if inGroup[nb] && !seen[nb] {
							seen[nb] = true
							queue = append(queue, nb)
						}
					}
				}
				if len(seen) != len(members) {
					t.Errorf("cells=%d k=%d: group %d disconnected (%d of %d reachable): %v",
						cells, k, g, len(seen), len(members), members)
				}
			}
		}
	}
}

// groupsOf converts a raw cell→group slice to group member lists.
func groupsOf(of []int, k int) [][]int {
	groups := make([][]int, k)
	for c, g := range of {
		groups[g] = append(groups[g], c)
	}
	return groups
}

func TestLocalityBeatsIndexRangeOnCut(t *testing.T) {
	// The whole point of locality-aware grouping: fewer traffic-weighted
	// cross-group edges than the index-range baseline. Locality is never
	// worse (it considers the refined baseline as a candidate) and strictly
	// better at the parallel-relevant group counts.
	for _, cells := range []int{19, 37, 61} {
		topo := mustTopo(t, cells)
		for _, k := range []int{2, 4, 6} {
			loc, err := Locality(topo, nil, k)
			if err != nil {
				t.Fatalf("Locality: %v", err)
			}
			base, err := IndexRange(cells, k)
			if err != nil {
				t.Fatalf("IndexRange: %v", err)
			}
			w := normalizeWeights(nil, cells)
			lc, bc := cutOf(topo, w, loc.of), cutOf(topo, w, base.of)
			if lc > bc {
				t.Errorf("cells=%d k=%d: locality cut %.4f above index-range cut %.4f",
					cells, k, lc, bc)
			}
			if k >= 4 && lc >= bc {
				t.Errorf("cells=%d k=%d: locality cut %.4f not strictly below index-range cut %.4f",
					cells, k, lc, bc)
			}
		}
	}
}

func TestLocalityBalancesHotspotLoad(t *testing.T) {
	// A steep hotspot at cell 0 of a 19-cell ring: index-range puts the
	// whole hot centre in group 0, locality should spread load better.
	topo := mustTopo(t, 19)
	weights := make([]float64, 19)
	for c := range weights {
		weights[c] = 1
	}
	weights[0] = 20
	k := 4
	loc, err := Locality(topo, weights, k)
	if err != nil {
		t.Fatalf("Locality: %v", err)
	}
	base, err := IndexRange(19, k)
	if err != nil {
		t.Fatalf("IndexRange: %v", err)
	}
	w := normalizeWeights(weights, 19)
	ls, bs := maxShareOf(w, loc.of), maxShareOf(w, base.of)
	if ls >= bs {
		t.Errorf("locality max share %.4f not below index-range %.4f", ls, bs)
	}
}

func TestCutWeightAndMaxShareEdges(t *testing.T) {
	topo := mustTopo(t, 7)
	uniform := normalizeWeights(nil, 7)
	one, err := IndexRange(7, 1)
	if err != nil {
		t.Fatal(err)
	}
	if cw := cutOf(topo, uniform, one.of); cw != 0 {
		t.Errorf("1-group cut = %v, want 0", cw)
	}
	if ms := maxShareOf(uniform, one.of); ms != 1 {
		t.Errorf("1-group max share = %v, want 1", ms)
	}
	all, err := IndexRange(7, 7)
	if err != nil {
		t.Fatal(err)
	}
	// Every edge cut; paper cluster has 6 outer cells of degree 4 but the
	// foreign fraction is 1 for every cell, so cut = sum of weights = 7.
	if cw := cutOf(topo, uniform, all.of); cw < 6.999 || cw > 7.001 {
		t.Errorf("n-group cut = %v, want 7", cw)
	}
}

func TestLocalityWeightFallbacks(t *testing.T) {
	topo := mustTopo(t, 19)
	for _, weights := range [][]float64{
		nil,
		make([]float64, 19),             // all zero
		{1, 2, 3},                       // wrong length
		append(make([]float64, 18), -1), // negative entry
	} {
		a, err := Locality(topo, weights, 4)
		if err != nil {
			t.Fatalf("Locality(%v): %v", weights, err)
		}
		checkValid(t, a, 19, 4)
	}
}

func TestParseSpec(t *testing.T) {
	good := []struct {
		in     string
		kind   string
		groups int
	}{
		{"locality", KindLocality, 0},
		{"locality:4", KindLocality, 4},
		{"index-range", KindIndexRange, 0},
		{"index-range:2", KindIndexRange, 2},
		{` {"kind":"locality","groups":3}`, KindLocality, 3},
		{`{"kind":"index-range"}`, KindIndexRange, 0},
	}
	for _, tc := range good {
		spec, err := ParseSpec(tc.in)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", tc.in, err)
		}
		if spec.Kind != tc.kind || spec.Groups != tc.groups {
			t.Errorf("ParseSpec(%q) = %+v, want kind=%s groups=%d", tc.in, spec, tc.kind, tc.groups)
		}
	}

	expl, err := ParseSpec(`{"kind":"explicit","explicit":[[0,1,2],[3,4,5,6]]}`)
	if err != nil {
		t.Fatalf("ParseSpec explicit: %v", err)
	}
	if expl.Kind != KindExplicit || len(expl.Explicit) != 2 {
		t.Fatalf("explicit spec = %+v", expl)
	}

	bad := []string{
		"", "   ", "bogus", "locality:", "locality:0", "locality:-3",
		"locality:x", "index-range:2:3",
		`{"kind":"locality","typo":1}`,
		`{"kind":"explicit"}`,
		`{"kind":"explicit","explicit":[[0]],"groups":2}`,
		`{"kind":"locality"} trailing`,
		`{"kind":`,
	}
	for _, in := range bad {
		if _, err := ParseSpec(in); !errors.Is(err, ErrInvalidPartition) {
			t.Errorf("ParseSpec(%q) err = %v, want ErrInvalidPartition", in, err)
		}
	}

	// Unknown-kind error enumerates the supported kinds.
	_, err = ParseSpec("bogus")
	if err == nil || !strings.Contains(err.Error(), strings.Join(Kinds(), ", ")) {
		t.Errorf("unknown-kind error %q should list kinds %v", err, Kinds())
	}
}

func TestSpecBuild(t *testing.T) {
	topo := mustTopo(t, 19)
	for _, tc := range []struct {
		spec    Spec
		workers int
		wantK   int
	}{
		{Spec{Kind: KindLocality}, 4, 4},
		{Spec{Kind: KindLocality, Groups: 3}, 8, 3},
		{Spec{Kind: KindIndexRange}, 1, 1},
		{Spec{Kind: KindIndexRange, Groups: 64}, 4, 19}, // clamped
		{Spec{Kind: KindLocality}, 0, 1},                // no workers -> 1 group
	} {
		a, err := tc.spec.Build(topo, nil, tc.workers)
		if err != nil {
			t.Fatalf("Build(%+v, workers=%d): %v", tc.spec, tc.workers, err)
		}
		checkValid(t, a, 19, tc.wantK)
	}

	expl := Spec{Kind: KindExplicit, Explicit: [][]int{{0, 1, 2}, {3, 4, 5, 6}}}
	a, err := expl.Build(mustTopo(t, 7), nil, 4)
	if err != nil {
		t.Fatalf("Build explicit: %v", err)
	}
	checkValid(t, a, 7, 2)
	// Explicit groups that do not cover the topology fail in Build.
	if _, err := expl.Build(topo, nil, 4); !errors.Is(err, ErrInvalidPartition) {
		t.Errorf("explicit 7-cell grouping on 19 cells: err = %v", err)
	}

	if _, err := (&Spec{Kind: "bogus"}).Build(topo, nil, 1); !errors.Is(err, ErrInvalidPartition) {
		t.Errorf("bogus kind Build err = %v", err)
	}
	if _, err := (&Spec{Kind: KindLocality}).Build(nil, nil, 1); !errors.Is(err, ErrInvalidPartition) {
		t.Errorf("nil topology Build err = %v", err)
	}
}

func TestSpecStringRoundTrip(t *testing.T) {
	for _, spec := range []*Spec{
		{Kind: KindLocality},
		{Kind: KindLocality, Groups: 4},
		{Kind: KindIndexRange, Groups: 2},
		{Kind: KindExplicit, Explicit: [][]int{{0, 1}, {2, 3, 4, 5, 6}}},
	} {
		got, err := ParseSpec(spec.String())
		if err != nil {
			t.Fatalf("round trip %q: %v", spec.String(), err)
		}
		if got.String() != spec.String() {
			t.Errorf("round trip %q -> %q", spec.String(), got.String())
		}
	}
}

func ExampleParseSpec() {
	spec, _ := ParseSpec("locality:4")
	fmt.Println(spec.Kind, spec.Groups)
	// Output: locality 4
}
