package cluster

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestHexClusterShape(t *testing.T) {
	topo := NewHexCluster()
	if topo.NumCells() != 7 {
		t.Fatalf("NumCells = %d, want 7", topo.NumCells())
	}
	if err := topo.Validate(); err != nil {
		t.Fatalf("hex cluster invalid: %v", err)
	}
	if topo.Degree(MidCell) != 6 {
		t.Errorf("mid cell degree = %d, want 6", topo.Degree(MidCell))
	}
	for c := 1; c <= 6; c++ {
		if !topo.AreNeighbors(MidCell, c) {
			t.Errorf("mid cell should border cell %d", c)
		}
		if topo.Degree(c) != 4 {
			t.Errorf("outer cell %d degree = %d, want 4", c, topo.Degree(c))
		}
	}
	// Ring adjacency of the outer cells.
	if !topo.AreNeighbors(1, 2) || !topo.AreNeighbors(6, 1) {
		t.Error("outer ring adjacency broken")
	}
}

func TestRingTopology(t *testing.T) {
	topo, err := NewRing(5)
	if err != nil {
		t.Fatal(err)
	}
	if err := topo.Validate(); err != nil {
		t.Fatalf("ring invalid: %v", err)
	}
	for c := 0; c < 5; c++ {
		if topo.Degree(c) != 2 {
			t.Errorf("cell %d degree = %d, want 2", c, topo.Degree(c))
		}
	}
	if !topo.AreNeighbors(0, 4) || !topo.AreNeighbors(0, 1) {
		t.Error("ring wrap-around missing")
	}
	if topo.AreNeighbors(0, 2) {
		t.Error("non-adjacent ring cells reported as neighbours")
	}
	if _, err := NewRing(1); err == nil {
		t.Error("ring of one cell should be rejected")
	}
}

// inflowSum computes, for one cell, the stationary inflow of the
// uniform-neighbour handover walk when every cell is equally occupied:
// sum over neighbours b of 1/deg(b). A value of 1 for every cell means the
// topology is flow-balanced — inflow matches outflow in every cell.
func inflowSum(topo *Topology, cell int) float64 {
	var sum float64
	for _, nb := range topo.neighbors[cell] {
		sum += 1 / float64(topo.Degree(nb))
	}
	return sum
}

func TestHexRingTopologies(t *testing.T) {
	sizes := map[int]int{1: 7, 2: 19, 3: 37}
	for r, want := range sizes {
		topo, err := NewHexRing(r)
		if err != nil {
			t.Fatalf("NewHexRing(%d): %v", r, err)
		}
		if topo.NumCells() != want {
			t.Fatalf("NewHexRing(%d) has %d cells, want %d", r, topo.NumCells(), want)
		}
		if err := topo.Validate(); err != nil {
			t.Fatalf("NewHexRing(%d) invalid (neighbour symmetry broken): %v", r, err)
		}
		for c := 0; c < topo.NumCells(); c++ {
			// Wrap-around closure: every cell, boundary cells included, has
			// exactly six distinct neighbours, none of them itself.
			if topo.Degree(c) != 6 {
				t.Errorf("r=%d: cell %d degree = %d, want 6", r, c, topo.Degree(c))
			}
			seen := make(map[int]bool)
			for _, nb := range topo.neighbors[c] {
				if nb == c {
					t.Errorf("r=%d: cell %d is its own neighbour", r, c)
				}
				if seen[nb] {
					t.Errorf("r=%d: cell %d lists neighbour %d twice", r, c, nb)
				}
				seen[nb] = true
			}
			// Flow balance: uniform occupancy is stationary under handovers.
			if sum := inflowSum(topo, c); math.Abs(sum-1) > 1e-12 {
				t.Errorf("r=%d: cell %d inflow sum = %v, want 1", r, c, sum)
			}
		}
		// The first ring must border the mid cell (index layout convention).
		for c := 1; c <= 6; c++ {
			if !topo.AreNeighbors(MidCell, c) {
				t.Errorf("r=%d: ring-1 cell %d should border the mid cell", r, c)
			}
		}
	}
	if _, err := NewHexRing(0); err == nil {
		t.Error("NewHexRing(0) should be rejected")
	}
}

func TestPresetTopologiesAreConnected(t *testing.T) {
	// Handover flow must be able to reach every cell from every cell: a bug
	// in the wrap-around closure (e.g. dropped edges that still keep
	// neighbour lists symmetric) would disconnect the cluster and trap
	// users in a component.
	for _, n := range []int{7, 19, 37} {
		topo, err := Preset(n)
		if err != nil {
			t.Fatal(err)
		}
		visited := make([]bool, topo.NumCells())
		queue := []int{MidCell}
		visited[MidCell] = true
		reached := 1
		for len(queue) > 0 {
			c := queue[0]
			queue = queue[1:]
			for _, nb := range topo.neighbors[c] {
				if !visited[nb] {
					visited[nb] = true
					reached++
					queue = append(queue, nb)
				}
			}
		}
		if reached != topo.NumCells() {
			t.Errorf("%d-cell cluster: only %d cells reachable from the mid cell", n, reached)
		}
	}
}

func TestPreset(t *testing.T) {
	for _, n := range PresetSizes() {
		topo, err := Preset(n)
		if err != nil {
			t.Fatalf("Preset(%d): %v", n, err)
		}
		if topo.NumCells() != n {
			t.Errorf("Preset(%d) has %d cells", n, topo.NumCells())
		}
		if err := topo.Validate(); err != nil {
			t.Errorf("Preset(%d) invalid: %v", n, err)
		}
	}
	// The paper's cluster keeps its hand-built shape: degree-4 ring cells.
	topo, err := Preset(7)
	if err != nil {
		t.Fatal(err)
	}
	if topo.Degree(1) != 4 {
		t.Errorf("Preset(7) should be the seed cluster, ring degree = %d", topo.Degree(1))
	}
	for _, n := range []int{0, 1, 8, 40, 332} {
		if _, err := Preset(n); err == nil {
			t.Errorf("Preset(%d) should be rejected", n)
		}
	}
}

// TestPresetSizes pins the derived preset list: the hexagonal ball sizes in
// ascending order, containing the city-scale steps the CLIs advertise.
func TestPresetSizes(t *testing.T) {
	sizes := PresetSizes()
	want := []int{7, 19, 37, 61, 91, 127, 169, 217, 271, 331}
	if !reflect.DeepEqual(sizes, want) {
		t.Fatalf("PresetSizes() = %v, want %v", sizes, want)
	}
}

// TestPresetErrorEnumeratesSizes is the error-path pin for the dynamic size
// list: the rejection message must name every supported size, so it cannot go
// stale as new lattice radii join PresetSizes.
func TestPresetErrorEnumeratesSizes(t *testing.T) {
	_, err := Preset(42)
	if err == nil {
		t.Fatal("Preset(42) should be rejected")
	}
	if !errors.Is(err, ErrInvalidTopology) {
		t.Errorf("Preset error should wrap ErrInvalidTopology, got %v", err)
	}
	msg := err.Error()
	if !strings.Contains(msg, fmt.Sprintf("%v", PresetSizes())) {
		t.Errorf("Preset error %q should enumerate the supported sizes %v", msg, PresetSizes())
	}
}

func TestOutOfRangeCells(t *testing.T) {
	topo := NewHexCluster()
	if topo.Degree(-1) != 0 || topo.Degree(99) != 0 {
		t.Error("out-of-range degree should be 0")
	}
	if topo.AreNeighbors(-1, 0) || topo.AreNeighbors(0, 99) {
		t.Error("out-of-range AreNeighbors should be false")
	}
}

func TestHandoverTarget(t *testing.T) {
	topo := NewHexCluster()
	// Deterministic picker selecting the i-th neighbour.
	for i := 0; i < topo.Degree(MidCell); i++ {
		i := i
		target := topo.HandoverTarget(MidCell, func(n int) int { return i })
		if !topo.AreNeighbors(MidCell, target) {
			t.Errorf("handover target %d is not a neighbour", target)
		}
	}
	// Out-of-range picker results are clamped.
	if target := topo.HandoverTarget(MidCell, func(n int) int { return 99 }); !topo.AreNeighbors(MidCell, target) {
		t.Errorf("clamped target %d not a neighbour", target)
	}
	if topo.HandoverTarget(-1, func(n int) int { return 0 }) != -1 {
		t.Error("invalid cell should return -1")
	}
}

// Property: every handover target returned for a valid picker is a neighbour
// of the source cell, for both topologies.
func TestHandoverTargetProperty(t *testing.T) {
	hex := NewHexCluster()
	ring, err := NewRing(9)
	if err != nil {
		t.Fatal(err)
	}
	prop := func(cellSeed, pickSeed uint8) bool {
		for _, topo := range []*Topology{hex, ring} {
			cell := int(cellSeed) % topo.NumCells()
			pick := int(pickSeed)
			target := topo.HandoverTarget(cell, func(n int) int { return pick % n })
			if target < 0 || !topo.AreNeighbors(cell, target) || target == cell {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestDistances checks the BFS hop distances on the preset clusters: the
// seven-cell cluster has eccentricity 1 from the mid cell, the hex rings have
// eccentricity r from theirs, distances are symmetric, and exactly the
// neighbours sit at distance 1.
func TestDistances(t *testing.T) {
	for _, tc := range []struct {
		cells, ecc int
	}{{7, 1}, {19, 2}, {37, 3}} {
		topo, err := Preset(tc.cells)
		if err != nil {
			t.Fatal(err)
		}
		dist := topo.Distances(MidCell)
		if len(dist) != tc.cells {
			t.Fatalf("%d cells: %d distances", tc.cells, len(dist))
		}
		if dist[MidCell] != 0 {
			t.Errorf("%d cells: distance to self = %d", tc.cells, dist[MidCell])
		}
		if got := topo.Eccentricity(MidCell); got != tc.ecc {
			t.Errorf("%d cells: eccentricity %d, want %d", tc.cells, got, tc.ecc)
		}
		for c, d := range dist {
			if want := topo.Distances(c)[MidCell]; want != d {
				t.Errorf("%d cells: asymmetric distance %d<->%d: %d vs %d", tc.cells, MidCell, c, d, want)
			}
			if (d == 1) != topo.AreNeighbors(MidCell, c) {
				t.Errorf("%d cells: cell %d at distance %d, neighbour=%v", tc.cells, c, d, topo.AreNeighbors(MidCell, c))
			}
		}
	}
	topo := NewHexCluster()
	if topo.Distances(-1) != nil || topo.Distances(7) != nil {
		t.Error("out-of-range cells should yield nil distances")
	}
	if topo.Eccentricity(42) != -1 {
		t.Error("out-of-range eccentricity should be -1")
	}
}

// TestAxisDistances pins the corridor geometry: the corridor of an axis
// through a cell is a straight row in the hex embedding, distances grow
// perpendicular to it, every hex topology supports all three axes, and
// coordinate-less topologies (plain rings) report none.
func TestAxisDistances(t *testing.T) {
	// Seed cluster, axis 0 through the mid cell: the mid cell and the two
	// ring cells on the axis are the corridor, every other cell is one off.
	topo := NewHexCluster()
	if got, want := topo.AxisDistances(MidCell, 0), []int{0, 0, 1, 1, 0, 1, 1}; !reflect.DeepEqual(got, want) {
		t.Errorf("7-cell axis 0 distances = %v, want %v", got, want)
	}

	for _, cells := range []int{7, 19, 37} {
		topo, err := Preset(cells)
		if err != nil {
			t.Fatal(err)
		}
		for axis := 0; axis < NumHexAxes; axis++ {
			dist := topo.AxisDistances(MidCell, axis)
			if len(dist) != cells {
				t.Fatalf("%d cells axis %d: %d distances", cells, axis, len(dist))
			}
			if dist[MidCell] != 0 {
				t.Errorf("%d cells axis %d: the center is not on its own corridor", cells, axis)
			}
			var counts []int
			for _, d := range dist {
				if d < 0 {
					t.Fatalf("%d cells axis %d: negative distance", cells, axis)
				}
				for len(counts) <= d {
					counts = append(counts, 0)
				}
				counts[d]++
			}
			// A hex ball of radius r has 2r+1 cells on any axis through the
			// center and 2r+1-d on each side at perpendicular distance d.
			r := (topo.Eccentricity(MidCell))
			if got, want := counts[0], 2*r+1; cells != 7 && got != want {
				t.Errorf("%d cells axis %d: %d corridor cells, want %d", cells, axis, got, want)
			}
			for d := 1; d < len(counts); d++ {
				if cells != 7 && counts[d] != 2*(2*r+1-d) {
					t.Errorf("%d cells axis %d: %d cells at distance %d, want %d",
						cells, axis, counts[d], d, 2*(2*r+1-d))
				}
			}
		}
		// The three axes are related by lattice symmetry: the multiset of
		// distances must match across axes.
		for axis := 1; axis < NumHexAxes; axis++ {
			a := append([]int(nil), topo.AxisDistances(MidCell, 0)...)
			b := append([]int(nil), topo.AxisDistances(MidCell, axis)...)
			sort.Ints(a)
			sort.Ints(b)
			if !reflect.DeepEqual(a, b) {
				t.Errorf("%d cells: axis %d distance multiset differs from axis 0", cells, axis)
			}
		}
	}

	if topo.AxisDistances(-1, 0) != nil || topo.AxisDistances(0, NumHexAxes) != nil || topo.AxisDistances(99, 0) != nil {
		t.Error("out-of-range cell or axis should yield nil")
	}
	ring, err := NewRing(8)
	if err != nil {
		t.Fatal(err)
	}
	if ring.AxisDistances(0, 0) != nil {
		t.Error("plain rings carry no hex embedding and should yield nil")
	}
}

// TestNeighborAt pins the allocation-free neighbour accessor against the
// neighbour lists: same cells in the same deterministic order, -1 out of
// range, and zero allocations per call.
func TestNeighborAt(t *testing.T) {
	for _, cells := range []int{7, 19, 37} {
		topo, err := Preset(cells)
		if err != nil {
			t.Fatal(err)
		}
		for c := 0; c < topo.NumCells(); c++ {
			nbs := topo.neighbors[c]
			if got := topo.Degree(c); got != len(nbs) {
				t.Fatalf("%d cells: Degree(%d) = %d, want %d", cells, c, got, len(nbs))
			}
			for i, want := range nbs {
				if got := topo.NeighborAt(c, i); got != want {
					t.Errorf("%d cells: NeighborAt(%d, %d) = %d, want %d", cells, c, i, got, want)
				}
			}
			if topo.NeighborAt(c, -1) != -1 || topo.NeighborAt(c, topo.Degree(c)) != -1 {
				t.Errorf("%d cells: out-of-range neighbour index should yield -1", cells)
			}
		}
	}
	topo := NewHexCluster()
	if topo.NeighborAt(-1, 0) != -1 || topo.NeighborAt(topo.NumCells(), 0) != -1 {
		t.Error("out-of-range cell should yield -1")
	}
	var sink int
	allocs := testing.AllocsPerRun(100, func() {
		sink = topo.NeighborAt(MidCell, sink%topo.Degree(MidCell))
	})
	if allocs != 0 {
		t.Errorf("NeighborAt allocates %.1f per call, want 0", allocs)
	}
}
