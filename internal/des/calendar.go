package des

import "math"

// calQueue is a Brown calendar queue: events hash into buckets by their
// "year" floor(t/width), bucket index year mod Nb, each bucket kept
// sorted by (t, seq). Dequeue scans bucket slots in year order starting
// from the year of the last dequeued event; a whole fruitless year falls
// back to a direct search (sparse queue). Under smooth event-time
// distributions enqueue and dequeue are O(1) on average. The bucket count
// only grows (doubling when the live count exceeds twice the bucket count):
// like the event freelist, the calendar's footprint is bounded by the peak
// population, and never shrinking keeps the steady-state path off the
// allocator even when the pending count oscillates.
//
// The scan matches buckets by exact year equality (years are integral
// float64 values, compared exactly) rather than by accumulated float
// thresholds, so the pop order is exactly the (t, seq) total order: a
// calendar-backed Simulation is bit-identical to a heap-backed one, pinned
// by the differential tests and FuzzEventOrder in this package.
type calQueue struct {
	buckets [][]entry
	width   float64
	count   int

	// lastYear is the year slot of the last dequeued event. Invariant:
	// every queued event has year >= lastYear (push rewinds the cursor when
	// an earlier event arrives), which makes the first year-matching bucket
	// head the global minimum.
	lastYear float64
}

func newCalQueue() *calQueue {
	return &calQueue{buckets: make([][]entry, 2), width: 1}
}

func (q *calQueue) size() int { return q.count }

// yearOf returns the year slot of time t: floor(t/width), an integral
// float64. Float division by a positive width is monotone, so for events in
// different years the year order is exactly the time order.
func (q *calQueue) yearOf(t float64) float64 { return math.Floor(t / q.width) }

// bucketOf returns the bucket index of year y.
func (q *calQueue) bucketOf(y float64) int {
	i := int(math.Mod(y, float64(len(q.buckets))))
	if i < 0 {
		i += len(q.buckets)
	}
	return i
}

func (q *calQueue) push(e entry) {
	y := q.yearOf(e.t)
	if y < q.lastYear {
		// The event lands behind the dequeue cursor; rewind the cursor so
		// the scan cannot miss it.
		q.lastYear = y
	}
	i := q.bucketOf(y)
	q.buckets[i] = insertSorted(q.buckets[i], e)
	q.count++
	if q.count > 2*len(q.buckets) {
		q.resize(2 * len(q.buckets))
	}
}

func (q *calQueue) front() (entry, bool) {
	i, _, ok := q.findMin()
	if !ok {
		return entry{}, false
	}
	return q.buckets[i][0], true
}

func (q *calQueue) pop() {
	i, year, _ := q.findMin()
	b := q.buckets[i]
	copy(b, b[1:])
	b[len(b)-1] = entry{}
	q.buckets[i] = b[:len(b)-1]
	q.count--
	q.lastYear = year
}

func (q *calQueue) refile(e entry) {
	q.pop()
	q.push(e)
}

// findMin locates the earliest event and returns its bucket index and year.
// It scans one year's worth of buckets from the cursor, matching each
// bucket's head by exact year equality (a head in a later year waits for a
// later scan of the same bucket); a fruitless year means the next event is
// more than a year ahead, and a direct search over all bucket heads takes
// over, rewinding the cursor to the minimum's year.
func (q *calQueue) findMin() (int, float64, bool) {
	if q.count == 0 {
		return 0, 0, false
	}
	n := len(q.buckets)
	i := q.bucketOf(q.lastYear)
	for k := 0; k < n; k++ {
		if b := q.buckets[i]; len(b) > 0 && q.yearOf(b[0].t) == q.lastYear+float64(k) {
			return i, q.lastYear + float64(k), true
		}
		i++
		if i == n {
			i = 0
		}
	}
	min := -1
	for j, b := range q.buckets {
		if len(b) == 0 {
			continue
		}
		if min < 0 || b[0].before(q.buckets[min][0].key) {
			min = j
		}
	}
	year := q.yearOf(q.buckets[min][0].t)
	q.lastYear = year
	return min, year, true
}

// purge releases every cancelled record, filtering each bucket in place.
// Removing events keeps every bucket sorted and the cursor invariant intact.
func (q *calQueue) purge() {
	for i, b := range q.buckets {
		kept := b[:0]
		for _, e := range b {
			if e.ev.gen&1 != 0 {
				e.ev.sim.release(e.ev)
				continue
			}
			kept = append(kept, e)
		}
		clear(b[len(kept):])
		q.count -= len(b) - len(kept)
		q.buckets[i] = kept
	}
}

// resize redistributes all events over nb buckets with a width estimated
// from the current time span, then rewinds the cursor to the earliest
// event's year.
func (q *calQueue) resize(nb int) {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, b := range q.buckets {
		for _, e := range b {
			lo = math.Min(lo, e.t)
			hi = math.Max(hi, e.t)
		}
	}
	width := 1.0
	if q.count > 1 && hi > lo {
		// Three average separations per bucket slot (Brown's rule of thumb
		// applied to the whole span).
		width = 3 * (hi - lo) / float64(q.count-1)
	}
	old := q.buckets
	q.buckets = make([][]entry, nb)
	q.width = width
	for _, b := range old {
		for _, e := range b {
			i := q.bucketOf(q.yearOf(e.t))
			q.buckets[i] = insertSorted(q.buckets[i], e)
		}
	}
	if q.count > 0 {
		q.lastYear = q.yearOf(lo)
	} else {
		q.lastYear = 0
	}
}

// insertSorted inserts e into the (t, seq)-sorted slice b.
func insertSorted(b []entry, e entry) []entry {
	lo, hi := 0, len(b)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if b[mid].before(e.key) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	b = append(b, entry{})
	copy(b[lo+1:], b[lo:])
	b[lo] = e
	return b
}
