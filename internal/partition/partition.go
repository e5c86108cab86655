// Package partition assigns the cells of a cluster topology to shard groups
// for the group-calendar parallel engine (internal/sim on internal/shard):
// every group owns one event calendar, cells of one group interact directly on
// it, and only cross-group handovers travel as window-barrier messages. The
// package provides the contiguous index-range baseline, a locality-aware
// partitioner (BFS-grown hexagonal patches balanced by per-cell load, plus a
// greedy boundary-refinement pass that minimises the expected cross-group
// handover traffic), and a small spec language (ParseSpec) the CLIs and
// sim.Config.Partition plug into.
//
// # Determinism contract
//
// A partitioning never affects simulation results — only which calendar a
// cell's events execute on and how much traffic crosses the window barrier.
// The engines are bit-identical for every valid Assignment and worker count
// (pinned by the randomized partition-equivalence suite in internal/sim), so
// partition quality is purely a performance concern: a good assignment
// balances per-group load and keeps chatty neighbours together. All
// partitioners in this package are deterministic pure functions of their
// inputs; no randomness is consumed.
package partition

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/cluster"
)

// ErrInvalidPartition is returned for malformed assignments or specs.
var ErrInvalidPartition = errors.New("partition: invalid partition")

// Assignment is a validated cell-to-group mapping: every cell of the topology
// belongs to exactly one group and every group is non-empty. Group and cell
// order is canonical (groups keep their construction order, member lists are
// sorted ascending), so an Assignment renders and compares deterministically.
type Assignment struct {
	groups [][]int
	of     []int
}

// FromGroups validates an explicit grouping over numCells cells and returns
// it as an Assignment. Member lists are copied and sorted; empty groups,
// out-of-range cells, duplicates, and uncovered cells are rejected.
func FromGroups(numCells int, groups [][]int) (*Assignment, error) {
	if numCells < 1 {
		return nil, fmt.Errorf("%w: %d cells", ErrInvalidPartition, numCells)
	}
	if len(groups) == 0 {
		return nil, fmt.Errorf("%w: no groups", ErrInvalidPartition)
	}
	of := make([]int, numCells)
	for i := range of {
		of[i] = -1
	}
	out := make([][]int, len(groups))
	for g, members := range groups {
		if len(members) == 0 {
			return nil, fmt.Errorf("%w: group %d is empty", ErrInvalidPartition, g)
		}
		out[g] = append([]int(nil), members...)
		sort.Ints(out[g])
		for _, c := range out[g] {
			if c < 0 || c >= numCells {
				return nil, fmt.Errorf("%w: group %d lists out-of-range cell %d", ErrInvalidPartition, g, c)
			}
			if of[c] != -1 {
				return nil, fmt.Errorf("%w: cell %d assigned twice", ErrInvalidPartition, c)
			}
			of[c] = g
		}
	}
	for c, g := range of {
		if g == -1 {
			return nil, fmt.Errorf("%w: cell %d not assigned to any group", ErrInvalidPartition, c)
		}
	}
	return &Assignment{groups: out, of: of}, nil
}

// NumGroups returns the number of groups.
func (a *Assignment) NumGroups() int { return len(a.groups) }

// Of returns the group index of a cell. It returns -1 for out-of-range cells.
func (a *Assignment) Of(cell int) int {
	if cell < 0 || cell >= len(a.of) {
		return -1
	}
	return a.of[cell]
}

// String renders the assignment compactly for logs and test failures.
func (a *Assignment) String() string { return fmt.Sprintf("%v", a.groups) }

// clampGroups bounds a requested group count to [1, numCells].
func clampGroups(k, numCells int) int {
	if k < 1 {
		k = 1
	}
	if k > numCells {
		k = numCells
	}
	return k
}

// IndexRange returns the contiguous index-range baseline over numCells cells:
// k near-equal blocks of consecutive cell indices (cell i joins group
// i*k/numCells — the historic split of the per-cell shard engine). On hex-ring
// layouts, whose indices advance ring by ring, index blocks mix cells from
// different lattice regions, so the baseline is deliberately
// locality-oblivious: it is the control the locality-aware partitioner is
// measured against. A requested k outside [1, numCells] is clamped.
func IndexRange(numCells, k int) (*Assignment, error) {
	if numCells < 1 {
		return nil, fmt.Errorf("%w: %d cells", ErrInvalidPartition, numCells)
	}
	k = clampGroups(k, numCells)
	groups := make([][]int, k)
	of := make([]int, numCells)
	for i := 0; i < numCells; i++ {
		g := i * k / numCells
		groups[g] = append(groups[g], i)
		of[i] = g
	}
	return &Assignment{groups: groups, of: of}, nil
}

// normalizeWeights returns a positive per-cell load vector of length numCells:
// a copy of weights when it is usable (correct length, finite, non-negative,
// positive total), uniform weight 1 otherwise. Zero-weight cells still carry
// a small epsilon of the mean so silent cells spread across groups instead of
// piling onto one.
func normalizeWeights(weights []float64, numCells int) []float64 {
	out := make([]float64, numCells)
	var total float64
	usable := len(weights) == numCells
	if usable {
		for _, w := range weights {
			if w < 0 || w != w || w > 1e300 {
				usable = false
				break
			}
			total += w
		}
	}
	if !usable || total <= 0 {
		for i := range out {
			out[i] = 1
		}
		return out
	}
	eps := total / float64(numCells) * 1e-6
	for i, w := range weights {
		out[i] = w + eps
	}
	return out
}

// Locality returns a locality-aware partitioning of the topology into k
// groups: contiguous hexagonal patches grown by breadth-first search from k
// seeds spread across the lattice (farthest-point seeding), balanced by the
// given per-cell load weights (the lightest group claims the next frontier
// cell), then improved by a greedy boundary-refinement pass that moves
// boundary cells between adjacent groups whenever the move strictly lowers
// the expected cross-group handover traffic (cutOf) without unbalancing
// the groups. The refined index-range baseline is evaluated as a second
// candidate and the lower-cut layout wins (ties go to the BFS patches), so a
// locality assignment never cuts more traffic-weighted edges than the
// contiguous index-range split of the same topology. weights is the expected
// per-cell event load — typically the scenario's compiled fresh-arrival
// rates — or nil for uniform load. The result is a deterministic pure
// function of (topology, weights, k).
func Locality(topo *cluster.Topology, weights []float64, k int) (*Assignment, error) {
	if topo == nil {
		return nil, fmt.Errorf("%w: nil topology", ErrInvalidPartition)
	}
	n := topo.NumCells()
	if n < 1 {
		return nil, fmt.Errorf("%w: empty topology", ErrInvalidPartition)
	}
	k = clampGroups(k, n)
	w := normalizeWeights(weights, n)

	of := growPatches(topo, w, k)
	refineBoundaries(topo, w, of, k)

	// Candidate two: the contiguous index-range split, refined the same way.
	// Refinement only ever lowers the cut, so taking the cheaper candidate
	// keeps Locality from losing to the IndexRange baseline on cut — but
	// only when the candidate does not blow the balance budget the BFS
	// growth achieved (a lower cut is no good if one group hoards the load).
	alt := make([]int, n)
	for i := range alt {
		alt[i] = i * k / n
	}
	refineBoundaries(topo, w, alt, k)
	balanceBudget := (1 + balanceSlack) / float64(k)
	if ms := maxShareOf(w, of); ms > balanceBudget {
		balanceBudget = ms
	}
	if cutOf(topo, w, alt) < cutOf(topo, w, of) && maxShareOf(w, alt) <= balanceBudget {
		of = alt
	}

	groups := make([][]int, k)
	for c, g := range of {
		groups[g] = append(groups[g], c)
	}
	return &Assignment{groups: groups, of: of}, nil
}

// growPatches seeds k groups by farthest-point sampling over hop distance
// (seed 0 is the heaviest cell, ties to the lowest index) and grows them into
// contiguous patches: at every step the group with the smallest claimed load
// takes the lowest-index unclaimed cell adjacent to it, or — if its frontier
// is exhausted — the lowest-index unclaimed cell anywhere, so the growth
// terminates on any topology.
func growPatches(topo *cluster.Topology, w []float64, k int) []int {
	n := topo.NumCells()
	of := make([]int, n)
	for i := range of {
		of[i] = -1
	}

	// Farthest-point seeds.
	seeds := make([]int, 0, k)
	best := 0
	for c := 1; c < n; c++ {
		if w[c] > w[best] {
			best = c
		}
	}
	seeds = append(seeds, best)
	minDist := topo.Distances(seeds[0])
	for len(seeds) < k {
		far := -1
		for c := 0; c < n; c++ {
			if of[c] == -1 && c != seeds[0] && !contains(seeds, c) {
				if far == -1 || minDist[c] > minDist[far] {
					far = c
				}
			}
		}
		if far == -1 {
			break
		}
		seeds = append(seeds, far)
		for c, d := range topo.Distances(far) {
			if d >= 0 && (minDist[c] < 0 || d < minDist[c]) {
				minDist[c] = d
			}
		}
	}

	load := make([]float64, k)
	assigned := 0
	for g, s := range seeds {
		of[s] = g
		load[g] += w[s]
		assigned++
	}

	for assigned < len(of) {
		// The lightest group with a live frontier claims next (ties to the
		// lowest group id), so patches stay contiguous on connected graphs.
		g, claim := -1, -1
		for h := 0; h < len(load); h++ {
			if g != -1 && load[h] >= load[g] {
				continue
			}
			if c := frontierCell(topo, of, h); c != -1 {
				g, claim = h, c
			}
		}
		if g == -1 {
			// Every frontier is exhausted but cells remain: the topology is
			// disconnected. The lightest group absorbs the lowest unclaimed
			// cell so the growth still terminates.
			g = 0
			for h := 1; h < len(load); h++ {
				if load[h] < load[g] {
					g = h
				}
			}
			for c, og := range of {
				if og == -1 {
					claim = c
					break
				}
			}
		}
		of[claim] = g
		load[g] += w[claim]
		assigned++
	}
	return of
}

func contains(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// frontierCell returns the lowest-index unassigned cell adjacent to group g,
// or -1 when none exists.
func frontierCell(topo *cluster.Topology, of []int, g int) int {
	best := -1
	for c, og := range of {
		if og != g {
			continue
		}
		for i, deg := 0, topo.Degree(c); i < deg; i++ {
			nb := topo.NeighborAt(c, i)
			if of[nb] == -1 && (best == -1 || nb < best) {
				best = nb
			}
		}
	}
	return best
}

// refinePasses bounds the greedy boundary-refinement loop; each pass sweeps
// every cell once, and the loop stops early when a sweep makes no move.
const refinePasses = 8

// balanceSlack is the headroom the refinement allows over the ideal per-group
// load: a move may not push the destination group beyond (1+slack) * ideal
// unless it still leaves the destination lighter than the source was.
const balanceSlack = 0.10

// refineBoundaries greedily moves boundary cells between adjacent groups when
// the move strictly reduces the cut weight and respects the balance
// constraint, never emptying a group. The sweep order (ascending cell index,
// candidate groups in ascending id) is deterministic.
func refineBoundaries(topo *cluster.Topology, w []float64, of []int, k int) {
	if k < 2 {
		return
	}
	var total float64
	load := make([]float64, k)
	size := make([]int, k)
	for c, g := range of {
		load[g] += w[c]
		size[g]++
		total += w[c]
	}
	ideal := total / float64(k)

	// cutDelta is the change in cut weight if cell c moves from src to dst:
	// c's own outbound cut becomes w[c] * fracForeign', and every neighbour
	// nb's contribution w[nb]/deg(nb) flips for edges touching c.
	cutDelta := func(c, dst int) float64 {
		src := of[c]
		var d float64
		deg := topo.Degree(c)
		for i := 0; i < deg; i++ {
			nb := topo.NeighborAt(c, i)
			// c's outbound edge to nb.
			before, after := 0.0, 0.0
			if of[nb] != src {
				before = w[c] / float64(deg)
			}
			if of[nb] != dst {
				after = w[c] / float64(deg)
			}
			d += after - before
			// nb's outbound edge to c.
			nbShare := w[nb] / float64(topo.Degree(nb))
			if of[nb] != src {
				d -= nbShare // was cut
			}
			if of[nb] != dst {
				d += nbShare // is cut
			}
		}
		return d
	}

	for pass := 0; pass < refinePasses; pass++ {
		moved := false
		for c := 0; c < len(of); c++ {
			src := of[c]
			if size[src] <= 1 {
				continue
			}
			bestDst, bestDelta := -1, 0.0
			deg := topo.Degree(c)
			for i := 0; i < deg; i++ {
				dst := of[topo.NeighborAt(c, i)]
				if dst == src || (bestDst != -1 && dst == bestDst) {
					continue
				}
				newDst := load[dst] + w[c]
				if newDst > ideal*(1+balanceSlack) && newDst > load[src] {
					continue // would unbalance
				}
				if d := cutDelta(c, dst); d < bestDelta-1e-15 {
					bestDst, bestDelta = dst, d
				}
			}
			if bestDst != -1 {
				load[src] -= w[c]
				size[src]--
				load[bestDst] += w[c]
				size[bestDst]++
				of[c] = bestDst
				moved = true
			}
		}
		if !moved {
			break
		}
	}
}

// cutOf is the expected cross-group handover traffic of a cell→group slice:
// the sum over cells of the cell's load weight (normalized, as from
// normalizeWeights) times the fraction of its neighbours living in other
// groups — the handover target is uniform over the neighbours, so this is
// proportional to the rate of barrier messages the grouping incurs.
func cutOf(topo *cluster.Topology, w []float64, of []int) float64 {
	var cut float64
	for c := 0; c < topo.NumCells(); c++ {
		deg := topo.Degree(c)
		if deg == 0 {
			continue
		}
		foreign := 0
		for i := 0; i < deg; i++ {
			if of[topo.NeighborAt(c, i)] != of[c] {
				foreign++
			}
		}
		cut += w[c] * float64(foreign) / float64(deg)
	}
	return cut
}

// maxShareOf is the load share of the heaviest group of a cell→group slice:
// the maximum over groups of the group's summed weight divided by the total
// weight. 1/groups is a perfect balance; 1 means one group carries
// everything.
func maxShareOf(w []float64, of []int) float64 {
	numGroups := 0
	for _, g := range of {
		if g+1 > numGroups {
			numGroups = g + 1
		}
	}
	load := make([]float64, numGroups)
	var total float64
	for c, g := range of {
		load[g] += w[c]
		total += w[c]
	}
	var max float64
	for _, l := range load {
		if l > max {
			max = l
		}
	}
	if total <= 0 {
		return 0
	}
	return max / total
}
