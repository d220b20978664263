package sim

// calendarQueue is the engine's future-event list: a calendar queue
// (Brown 1988) — a power-of-two wheel of day buckets, each an intrusive
// singly-linked list threaded through event.next. A pending event lives in
// bucket (at/width) & mask; popping scans forward from the current day and
// extracts the minimum (at, seq) inside it. At the event densities the
// packet models sustain (a rolling window of near-term events, load factor
// held near one by resizing) both schedule and pop are O(1), against the
// binary heap's O(log n), and neither path allocates.
//
// Ordering is byte-identical to the heap the engine used before: (at, seq)
// is a unique total order, so any correct priority queue pops the same
// sequence. calendar_test.go proves it differentially against a binary
// heap.
//
// Invariant: no pending event's day precedes curDay. Pops are monotonic in
// time and At refuses past scheduling, but a blocked popAtMost still moves
// the cursor to the pending minimum's day, and the engine then sets its
// clock to the limit. A later At(t) with limit ≤ t < minimum lands before
// the cursor (the packet façade does this on RunFor followed by a mid-run
// Inject); push re-opens the cursor for that case.
type calendarQueue struct {
	buckets  []*event
	mask     uint64 // len(buckets)-1; len(buckets) is a power of two
	width    uint64 // bucket span in picoseconds, ≥ 1
	count    int
	curDay   uint64 // at/width ordinal of the bucket being drained
	growAt   int    // count above which the wheel doubles
	shrinkAt int    // count below which the wheel halves
}

const (
	// calMinBuckets floors the wheel so shrinking never degenerates.
	calMinBuckets = 16
	// calMaxBuckets caps construction/grow; beyond this the per-pop
	// empty-bucket scan would cost more than the list lengths it avoids.
	calMaxBuckets = 1 << 20
	// calInitWidth is the initial bucket span: 1 ns, the inter-event gap
	// the packet datapath's serialization times cluster around. Resizes
	// re-derive the width from the live event population.
	calInitWidth = 1000
)

// init sizes the wheel for roughly hint simultaneous pending events.
func (q *calendarQueue) init(hint int) {
	n := calMinBuckets
	for n < hint && n < calMaxBuckets {
		n <<= 1
	}
	q.buckets = make([]*event, n)
	q.mask = uint64(n - 1)
	q.width = calInitWidth
	q.growAt = 2 * n
	q.shrinkAt = n / 4
}

func (q *calendarQueue) len() int { return q.count }

// push files ev under its day bucket.
func (q *calendarQueue) push(ev *event) {
	d := uint64(ev.at) / q.width
	idx := d & q.mask
	ev.next = q.buckets[idx]
	q.buckets[idx] = ev
	q.count++
	if d < q.curDay {
		q.curDay = d
	}
	if q.count > q.growAt {
		q.resize(len(q.buckets) * 2)
	}
}

// unlink removes a pending event from bucket idx, the bucket it is filed
// under.
func (q *calendarQueue) unlink(ev *event, idx uint64) {
	if p := q.buckets[idx]; p == ev {
		q.buckets[idx] = ev.next
	} else {
		for p.next != ev {
			p = p.next
		}
		p.next = ev.next
	}
	ev.next = nil
	q.count--
	if q.count < q.shrinkAt {
		q.resize(len(q.buckets) / 2)
	}
}

// popAtMost extracts the minimum (at, seq) event if its time is ≤ limit,
// else leaves the queue untouched and returns nil (also when empty).
func (q *calendarQueue) popAtMost(limit Time) *event {
	if q.count == 0 {
		return nil
	}
	n := uint64(len(q.buckets))
	d := q.curDay
	for i := uint64(0); i < n; i++ {
		var best *event
		for ev := q.buckets[d&q.mask]; ev != nil; ev = ev.next {
			if uint64(ev.at)/q.width != d {
				continue // a later year sharing this bucket
			}
			if best == nil || ev.at < best.at || (ev.at == best.at && ev.seq < best.seq) {
				best = ev
			}
		}
		if best != nil {
			// Days scan in time order and no pending event precedes
			// curDay, so the minimum of the first non-empty day is the
			// global minimum.
			q.curDay = d
			if best.at > limit {
				return nil
			}
			q.unlink(best, d&q.mask)
			return best
		}
		d++
	}
	// A whole year of empty days: the population is sparse at this width.
	// Jump the cursor straight to the global minimum.
	best := q.minScan()
	q.curDay = uint64(best.at) / q.width
	if best.at > limit {
		return nil
	}
	q.unlink(best, q.curDay&q.mask)
	return best
}

// minScan finds the global minimum (at, seq) by walking every bucket.
// Only the sparse-population fallback and resize pay this O(n) cost.
func (q *calendarQueue) minScan() *event {
	var best *event
	for _, head := range q.buckets {
		for ev := head; ev != nil; ev = ev.next {
			if best == nil || ev.at < best.at || (ev.at == best.at && ev.seq < best.seq) {
				best = ev
			}
		}
	}
	return best
}

// resize rebuilds the wheel at n buckets, re-deriving the bucket width
// from the live population's time span so the load factor returns to ~1
// event per day. All inputs are pending-event state, so the rebuild is
// deterministic.
func (q *calendarQueue) resize(n int) {
	if n < calMinBuckets || n > calMaxBuckets || q.count == 0 {
		return
	}
	// Collect every pending event into one list and find the time span.
	var head *event
	minAt, maxAt := Time(0), Time(0)
	first := true
	for i := range q.buckets {
		for ev := q.buckets[i]; ev != nil; {
			next := ev.next
			ev.next = head
			head = ev
			if first || ev.at < minAt {
				minAt = ev.at
			}
			if first || ev.at > maxAt {
				maxAt = ev.at
			}
			first = false
			ev = next
		}
		q.buckets[i] = nil
	}
	width := uint64(maxAt-minAt) / uint64(q.count)
	if width == 0 {
		width = 1
	}
	if len(q.buckets) != n {
		q.buckets = make([]*event, n)
		q.mask = uint64(n - 1)
		q.growAt = 2 * n
		q.shrinkAt = n / 4
	}
	q.width = width
	q.curDay = uint64(minAt) / width
	for ev := head; ev != nil; {
		next := ev.next
		idx := (uint64(ev.at) / width) & q.mask
		ev.next = q.buckets[idx]
		q.buckets[idx] = ev
		ev = next
	}
}
