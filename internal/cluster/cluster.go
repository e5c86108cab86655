// Package cluster models the cellular layout used by the paper's detailed
// simulator: a cluster of seven hexagonal cells (one mid cell surrounded by
// six neighbours). Handovers move users between neighbouring cells; the
// performance measures are collected in the mid cell (Section 5.2). Beyond
// the paper's cluster the package generates city-scale wrap-around hexagonal
// balls of arbitrary radius (NewHexRing, up to 331 cells through Preset),
// closed toroidally so handover flows stay balanced in every cell.
package cluster

import (
	"errors"
	"fmt"
)

// ErrInvalidTopology is returned for malformed cluster specifications.
var ErrInvalidTopology = errors.New("cluster: invalid topology")

// MidCell is the index of the central cell of the cluster, the cell whose
// measurements are compared with the analytical model.
const MidCell = 0

// NumHexAxes is the number of distinct lattice axes of a hexagonal layout.
// A corridor (highway) scenario runs along one of them; see AxisDistances.
const NumHexAxes = 3

// axial is a cell position in axial hex coordinates (q, r); the third cube
// coordinate is implied as -(q+r).
type axial struct{ q, r int }

// Topology describes a set of cells and their neighbour relations. Hexagonal
// topologies (NewHexCluster, NewHexRing) additionally carry the axial lattice
// coordinates of every cell, which corridor-shaped scenarios use to measure
// distances from a lattice axis; plain rings carry none.
type Topology struct {
	numCells  int
	neighbors [][]int
	coords    []axial // nil when the topology has no hex embedding
}

// NewHexCluster returns the seven-cell hexagonal cluster used in the paper:
// cell 0 is the mid cell adjacent to all six outer cells; the outer cells
// form a ring, each adjacent to the mid cell and to its two ring neighbours.
// Users leaving an outer cell away from the cluster wrap around to the
// opposite ring cell, listed once for the three outward directions: an outer
// cell has degree 4, HandoverTarget picks each neighbour with probability
// 1/4, and at uniform occupancy the mid cell receives 6 × 1/4 = 1.5 times its
// own handover outflow, so flows are not balanced (ROADMAP.md, open item 1).
func NewHexCluster() *Topology {
	const n = 7
	neighbors := make([][]int, n)
	// Mid cell borders every outer cell.
	neighbors[MidCell] = []int{1, 2, 3, 4, 5, 6}
	for i := 1; i <= 6; i++ {
		left := i - 1
		if left == 0 {
			left = 6
		}
		right := i + 1
		if right == 7 {
			right = 1
		}
		opposite := i + 3
		if opposite > 6 {
			opposite -= 6
		}
		// Mid cell, two ring neighbours, and the wrap-around cell standing in
		// for the three outward directions.
		neighbors[i] = []int{MidCell, left, right, opposite}
	}
	// Hex embedding: the outer ring cells 1..6 walk the six lattice
	// directions around the mid cell in ring order, so consecutive indices
	// are lattice neighbours, matching the neighbour lists above.
	coords := []axial{{0, 0}, {1, 0}, {1, -1}, {0, -1}, {-1, 0}, {-1, 1}, {0, 1}}
	return &Topology{numCells: n, neighbors: neighbors, coords: coords}
}

// NewHexRing returns the wrap-around hexagonal cluster with r rings of cells
// around the mid cell: 3r(r+1)+1 cells (7, 19, 37 for r = 1, 2, 3), cell 0
// being the mid cell. The cluster is the hexagonal ball of radius r on the
// triangular lattice, closed toroidally: the ball tiles the plane under the
// period lattice spanned by the axial vector (r+1, r) and its 60-degree
// rotation, so a user leaving the cluster re-enters on the far side. Every
// cell therefore has exactly six neighbours and the topology is
// vertex-transitive, which makes handover flows balanced in every cell — the
// generated generalization of the seed seven-cell cluster's wrap-around
// closure.
func NewHexRing(r int) (*Topology, error) {
	if r < 1 {
		return nil, fmt.Errorf("%w: hex ring needs at least 1 ring, got %d", ErrInvalidTopology, r)
	}
	dist := func(a axial) int {
		d := abs(a.q)
		if abs(a.r) > d {
			d = abs(a.r)
		}
		if abs(a.q+a.r) > d {
			d = abs(a.q + a.r)
		}
		return d
	}
	// Enumerate the ball ring by ring so the mid cell gets index MidCell and
	// ring k occupies a contiguous index range — the same layout convention as
	// the seed cluster.
	var coords []axial
	for ring := 0; ring <= r; ring++ {
		for q := -ring; q <= ring; q++ {
			for rr := -ring; rr <= ring; rr++ {
				if c := (axial{q, rr}); dist(c) == ring {
					coords = append(coords, c)
				}
			}
		}
	}
	index := make(map[axial]int, len(coords))
	for i, c := range coords {
		index[c] = i
	}
	// Period lattice: a = (r+1, r) and b = rot60(a) = (-r, 2r+1). Both have
	// squared hex norm q^2 + qr + r^2 = 3r^2+3r+1 = |ball|, the signature of a
	// perfect toroidal closure.
	a := axial{r + 1, r}
	b := axial{-r, 2*r + 1}
	canonical := func(c axial) (int, bool) {
		for m := -2; m <= 2; m++ {
			for k := -2; k <= 2; k++ {
				p := axial{c.q - m*a.q - k*b.q, c.r - m*a.r - k*b.r}
				if dist(p) <= r {
					return index[p], true
				}
			}
		}
		return 0, false
	}
	directions := []axial{{1, 0}, {1, -1}, {0, -1}, {-1, 0}, {-1, 1}, {0, 1}}
	neighbors := make([][]int, len(coords))
	for i, c := range coords {
		for _, d := range directions {
			nb, ok := canonical(axial{c.q + d.q, c.r + d.r})
			if !ok {
				return nil, fmt.Errorf("%w: no wrap-around image for neighbour of cell %d", ErrInvalidTopology, i)
			}
			neighbors[i] = append(neighbors[i], nb)
		}
	}
	t := &Topology{numCells: len(coords), neighbors: neighbors, coords: coords}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// maxPresetRing bounds the hex-ring sizes Preset enumerates: rings 1..10
// cover 7 through 331 cells. NewHexRing itself accepts arbitrary radii; the
// preset list exists so CLIs and tests can name city-scale sizes by cell
// count alone.
const maxPresetRing = 10

// PresetSizes returns the cluster sizes Preset accepts, in ascending order:
// the hexagonal ball sizes 3r(r+1)+1 for r = 1..10 (7, 19, 37, 61, 91, 127,
// 169, 217, 271, 331 cells). The list is derived, not hard-coded, so it stays
// in sync with the supported lattice generators — and so does the Preset
// error message.
func PresetSizes() []int {
	sizes := make([]int, 0, maxPresetRing)
	for r := 1; r <= maxPresetRing; r++ {
		sizes = append(sizes, 3*r*(r+1)+1)
	}
	return sizes
}

// Preset returns the topology for a supported cluster size: 7 is the paper's
// seven-cell hexagonal cluster, every other size of PresetSizes is the
// generated wrap-around hex-ring cluster of the matching radius (19, 37, 61,
// ... 331 cells for NewHexRing with 2..10 rings). For ring radii the size
// list cannot name, call NewHexRing directly.
func Preset(cells int) (*Topology, error) {
	if cells == 7 {
		return NewHexCluster(), nil
	}
	for r := 2; r <= maxPresetRing; r++ {
		if 3*r*(r+1)+1 == cells {
			return NewHexRing(r)
		}
	}
	return nil, fmt.Errorf("%w: unsupported cluster size %d (supported: %v)",
		ErrInvalidTopology, cells, PresetSizes())
}

// NewRing returns a ring of n cells (each cell has two neighbours). It is
// used in tests and for experiments with smaller clusters.
func NewRing(n int) (*Topology, error) {
	if n < 2 {
		return nil, fmt.Errorf("%w: ring needs at least 2 cells, got %d", ErrInvalidTopology, n)
	}
	neighbors := make([][]int, n)
	for i := 0; i < n; i++ {
		neighbors[i] = []int{(i + n - 1) % n, (i + 1) % n}
	}
	return &Topology{numCells: n, neighbors: neighbors}, nil
}

// NumCells returns the number of cells in the cluster.
func (t *Topology) NumCells() int { return t.numCells }

// NeighborAt returns the i-th neighbour of a cell without copying the
// neighbour list — the allocation-free accessor the simulator's hot path
// uses. It returns -1 for out-of-range cells or indices. Together with
// Degree it exposes the deterministic neighbour order HandoverTarget picks
// from, which the directed-retry handover policy relies on for its "next
// neighbour" rule.
func (t *Topology) NeighborAt(cell, i int) int {
	if cell < 0 || cell >= t.numCells || i < 0 || i >= len(t.neighbors[cell]) {
		return -1
	}
	return t.neighbors[cell][i]
}

// Degree returns the number of neighbours of a cell.
func (t *Topology) Degree(cell int) int {
	if cell < 0 || cell >= t.numCells {
		return 0
	}
	return len(t.neighbors[cell])
}

// AreNeighbors reports whether two cells share a border.
func (t *Topology) AreNeighbors(a, b int) bool {
	if a < 0 || a >= t.numCells || b < 0 || b >= t.numCells {
		return false
	}
	for _, nb := range t.neighbors[a] {
		if nb == b {
			return true
		}
	}
	return false
}

// Validate checks that the neighbour relation is symmetric and free of
// self-loops.
func (t *Topology) Validate() error {
	for c := 0; c < t.numCells; c++ {
		for _, nb := range t.neighbors[c] {
			if nb == c {
				return fmt.Errorf("%w: cell %d lists itself as neighbour", ErrInvalidTopology, c)
			}
			if nb < 0 || nb >= t.numCells {
				return fmt.Errorf("%w: cell %d lists out-of-range neighbour %d", ErrInvalidTopology, c, nb)
			}
			if !t.AreNeighbors(nb, c) {
				return fmt.Errorf("%w: neighbour relation %d -> %d is not symmetric", ErrInvalidTopology, c, nb)
			}
		}
	}
	return nil
}

// Distances returns the hop distance from the given cell to every cell of
// the cluster, computed by breadth-first search over the neighbour relation.
// On the wrap-around hex rings this is the hexagonal (toroidal) cell
// distance. It returns nil for out-of-range cells.
func (t *Topology) Distances(from int) []int {
	if from < 0 || from >= t.numCells {
		return nil
	}
	dist := make([]int, t.numCells)
	for i := range dist {
		dist[i] = -1
	}
	dist[from] = 0
	queue := []int{from}
	for len(queue) > 0 {
		c := queue[0]
		queue = queue[1:]
		for _, nb := range t.neighbors[c] {
			if dist[nb] < 0 {
				dist[nb] = dist[c] + 1
				queue = append(queue, nb)
			}
		}
	}
	return dist
}

// Eccentricity returns the largest hop distance from the given cell to any
// cell of the cluster, or -1 when the cell is out of range or the cluster is
// disconnected.
func (t *Topology) Eccentricity(from int) int {
	max := -1
	for _, d := range t.Distances(from) {
		if d < 0 {
			return -1
		}
		if d > max {
			max = d
		}
	}
	return max
}

// AxisDistances returns, for every cell of the cluster, the hex distance from
// the lattice line through the given cell along one of the three hexagonal
// axes (axis in [0, NumHexAxes)) — the "corridor" of a highway scenario. The
// distance is measured in the flat hex embedding of the layout, not through
// the wrap-around closure, so the corridor is a single straight row of cells
// and the contrast between corridor and off-corridor cells is preserved on
// the toroidal rings. It returns nil when the topology carries no hex
// embedding (plain rings) or the cell or axis is out of range.
func (t *Topology) AxisDistances(through, axis int) []int {
	if t.coords == nil || through < 0 || through >= t.numCells || axis < 0 || axis >= NumHexAxes {
		return nil
	}
	center := t.coords[through]
	out := make([]int, t.numCells)
	for i, c := range t.coords {
		q, r := c.q-center.q, c.r-center.r
		// The perpendicular hex distance from the line through the origin
		// along lattice direction d is the absolute value of the cube
		// coordinate d leaves unchanged: axis 0 runs along (1, 0) (constant
		// r), axis 1 along (0, 1) (constant q), axis 2 along (1, -1)
		// (constant q+r).
		switch axis {
		case 0:
			out[i] = abs(r)
		case 1:
			out[i] = abs(q)
		default:
			out[i] = abs(q + r)
		}
	}
	return out
}

// HandoverTarget returns the cell a user in the given cell hands over to,
// selected by the provided picker function (typically a uniform random index
// in [0, Degree(cell))). It returns -1 for out-of-range cells.
func (t *Topology) HandoverTarget(cell int, pick func(n int) int) int {
	if cell < 0 || cell >= t.numCells || len(t.neighbors[cell]) == 0 {
		return -1
	}
	idx := pick(len(t.neighbors[cell]))
	if idx < 0 || idx >= len(t.neighbors[cell]) {
		idx = 0
	}
	return t.neighbors[cell][idx]
}
