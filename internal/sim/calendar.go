package sim

import (
	"math/bits"
	"slices"

	"rackfab/internal/heapx"
)

// calendarQueue is the engine's future-event list: a calendar queue
// (Brown 1988) whose wheel holds one year of days, with everything later
// waiting in a binary heap. Day d covers the instants whose picosecond
// count shifted right by shift is d, and lives in slot d & mask while it is
// inside the year [curDay, curDay+len(days)).
//
//   - Each day is a chain threaded through event.next, sorted by (at, seq).
//     The events sharing an instant form a run whose first event points at
//     its last (runEnd). Push appends at the tail, which a same-instant
//     burst always does because seq only grows; otherwise it walks the day
//     one instant at a time and joins or opens its instant's run. Pop takes
//     the head. Lockstep traffic, hundreds of events at one instant, costs
//     O(1) per event.
//   - Events past the year wait in the far heap, so a chain never holds a
//     later year and the tail fast path is never blocked by one. Each
//     cursor advance admits the far events whose day has entered the year;
//     an empty wheel jumps the cursor straight to the far minimum.
//   - resize takes the day width from the head of the queue: the median gap
//     between the earliest calResizeInstants distinct instants, rounded
//     down to a power of two. Neither the whole span nor a few events
//     milliseconds ahead decide it. It fires when the count leaves its
//     band, and when the work of the last check window (days scanned plus
//     instants walked) exceeds calDriftFactor per pop.
//
// Neither path allocates once the wheel, heap and resize scratch are
// sized. Ordering is byte-identical to a binary heap's: (at, seq) is a
// unique total order, so any correct priority queue pops the same sequence.
// calendar_test.go proves it differentially.
//
// Invariants: no pending event's day precedes curDay, and every far event's
// day is past the year. Pops are monotonic in time and At refuses past
// scheduling, but a blocked popAtMost still moves the cursor to the pending
// minimum's day while the engine's clock stays behind it. A later At(t)
// with clock ≤ t < minimum lands before the cursor (the packet façade does
// this on RunFor followed by a mid-run Inject), so push re-opens the
// cursor. The shortened year may then leave wheel events past its end; pop
// finds them by scanning every chain head when the year holds none.
type calendarQueue struct {
	days   []day
	mask   uint64 // len(days)-1; len(days) is a power of two
	shift  uint   // a day spans 1<<shift picoseconds
	curDay uint64 // ordinal of the day being drained
	near   int    // events on the wheel
	far    heapx.Heap[*event]

	growAt   int // count above which the wheel doubles
	shrinkAt int // count below which the wheel halves

	// pops and work (days scanned plus instants walked) count from the
	// queue's start; markPops and markWork hold them at the start of the
	// check window, which ends when either reaches its check value.
	pops, work           int
	markPops, markWork   int
	checkPops, checkWork int

	scratch []*event // resize's collection buffer, kept between resizes
}

// day is one wheel slot: the chain's head and the first event of its last
// run, whose runEnd is the chain's tail.
type day struct{ head, lastRun *event }

const (
	// calMinBuckets floors the wheel so shrinking never degenerates.
	calMinBuckets = 16
	// calMaxBuckets caps construction/grow; beyond this the per-pop
	// empty-day scan would cost more than the chains it shortens.
	calMaxBuckets = 1 << 20
	// calInitShift sets the initial day span, 1024 ps: about the 1 ns
	// inter-event gap the packet datapath's serialization times cluster
	// around. Resizes re-derive it from the head of the pending set.
	calInitShift = 10
	// calMaxShift caps the day span at ~4.4 s, so (day+len(days))<<shift
	// never overflows for a day any pending instant falls on.
	calMaxShift = 42
	// calResizeInstants is how many of the earliest distinct pending
	// instants a resize derives the day width from.
	calResizeInstants = 32
	// calDriftFactor is the work per pop above which a check re-derives
	// the width.
	calDriftFactor = 4
)

// init sizes the wheel for roughly hint simultaneous pending events.
func (q *calendarQueue) init(hint int) {
	n := calMinBuckets
	for n < hint && n < calMaxBuckets {
		n <<= 1
	}
	q.setDays(n)
	q.shift = calInitShift
	q.mark()
}

// setDays allocates an empty wheel of n days and its count band.
func (q *calendarQueue) setDays(n int) {
	q.days = make([]day, n)
	q.mask = uint64(n - 1)
	q.growAt = 2 * n
	q.shrinkAt = n / 4
	if n == calMinBuckets {
		q.shrinkAt = 0
	}
}

func (q *calendarQueue) len() int { return q.near + q.far.Len() }

// push files ev on the wheel, or in the far heap when its day is past the
// year. ev.next must be nil.
func (q *calendarQueue) push(ev *event) {
	d := uint64(ev.at) >> q.shift
	if d < q.curDay {
		q.curDay = d
	}
	if d-q.curDay < uint64(len(q.days)) {
		// file, with its two fast paths inlined: the hottest line in the
		// simulator.
		dy := &q.days[d&q.mask]
		if r := dy.lastRun; r == nil {
			dy.head, dy.lastRun, ev.runEnd = ev, ev, ev
		} else if t := r.runEnd; ev.at > t.at {
			t.next, dy.lastRun, ev.runEnd = ev, ev, ev
		} else {
			q.file(ev, dy)
		}
		q.near++
	} else {
		q.far.Push(ev)
	}
	if q.len() > q.growAt {
		q.resize(len(q.days) * 2)
	}
}

// file links ev (with a nil next) into its day's chain in (at, seq) order.
// Its seq exceeds that of every event pending at its instant: push assigns
// seq in order, resize files in order, and no push reaches the wheel on a
// far event's day until admit has filed it. So ev always joins its
// instant's run at the end.
func (q *calendarQueue) file(ev *event, dy *day) {
	r := dy.lastRun
	switch {
	case r == nil:
		dy.head, dy.lastRun, ev.runEnd = ev, ev, ev
	case ev.at > r.runEnd.at:
		r.runEnd.next, dy.lastRun, ev.runEnd = ev, ev, ev
	case ev.at == r.runEnd.at:
		r.runEnd.next, r.runEnd = ev, ev
	default:
		q.insert(ev, dy)
	}
}

// insert is file's slow path: ev sorts before the chain's tail, so walk
// the day one instant at a time to ev's place.
func (q *calendarQueue) insert(ev *event, dy *day) {
	var prev *event // last event of the run before r
	r := dy.head
	for r.at < ev.at {
		prev = r.runEnd
		r = prev.next
		q.work++
	}
	if r.at == ev.at {
		end := r.runEnd
		ev.next, end.next, r.runEnd = end.next, ev, ev
		return
	}
	ev.next, ev.runEnd = r, ev // ev opens a new instant before r's
	if prev == nil {
		dy.head = ev
	} else {
		prev.next = ev
	}
}

// popAtMost extracts the minimum (at, seq) event if its time is ≤ limit,
// else leaves the queue's contents untouched and returns nil (also when
// empty).
func (q *calendarQueue) popAtMost(limit Time) *event {
	if q.near == 0 {
		if q.far.Len() == 0 {
			return nil
		}
		q.advance(uint64(q.far.Min().at) >> q.shift)
	}
	var dy *day
	for {
		// The first day in the year whose chain head falls on that day
		// holds the minimum: no wheel event precedes curDay, every far
		// event lies past the year, and a sorted chain's head is its
		// least event.
		d, end := q.curDay, q.curDay+uint64(len(q.days))
		for ; d < end; d++ {
			dy = &q.days[d&q.mask]
			if h := dy.head; h != nil && uint64(h.at)>>q.shift == d {
				break
			}
		}
		q.work += int(d-q.curDay) + 1
		if d < end {
			if d != q.curDay {
				q.advance(d)
			}
			break
		}
		// A re-opened cursor left every wheel event past the shortened
		// year: jump to the least chain head or far event.
		q.advance(uint64(q.minHead().at) >> q.shift)
	}
	ev := dy.head
	if ev.at > limit {
		return nil
	}
	nx := ev.next
	dy.head = nx
	if nx == nil {
		dy.lastRun = nil
	} else if nx.at == ev.at {
		nx.runEnd = ev.runEnd
		if dy.lastRun == ev {
			dy.lastRun = nx
		}
	}
	q.near--
	if q.pops++; q.pops >= q.checkPops || q.work > q.checkWork {
		q.check()
	}
	return ev
}

// check runs every len(days) pops, or sooner once their work budget is
// spent. It halves the wheel when the count has fallen below its band, and
// re-derives the width when the work since the last check exceeds
// calDriftFactor per pop.
func (q *calendarQueue) check() {
	n := len(q.days)
	switch {
	case q.len() < q.shrinkAt:
		q.resize(n / 2)
	case q.work-q.markWork > calDriftFactor*(q.pops-q.markPops):
		q.resize(n)
	default:
		q.mark()
	}
}

// mark starts a check window at the current counts.
func (q *calendarQueue) mark() {
	n := len(q.days)
	q.markPops, q.markWork = q.pops, q.work
	q.checkPops, q.checkWork = q.pops+n, q.work+calDriftFactor*n
}

// advance moves the cursor forward to day d and admits the far events
// whose day has entered the year.
func (q *calendarQueue) advance(d uint64) {
	q.curDay = d
	if q.far.Len() > 0 {
		q.admit()
	}
}

// admit is advance's loop, kept out of line so advance inlines into pop.
func (q *calendarQueue) admit() {
	end := (q.curDay + uint64(len(q.days))) << q.shift
	for q.far.Len() > 0 && uint64(q.far.Min().at) < end {
		ev := q.far.Pop()
		q.file(ev, &q.days[(uint64(ev.at)>>q.shift)&q.mask])
		q.near++
	}
}

// minHead returns the least pending event by walking every chain head and
// the far heap's minimum: O(len(days)), paid only after a re-opened cursor.
func (q *calendarQueue) minHead() *event {
	var best *event
	if q.far.Len() > 0 {
		best = q.far.Min()
	}
	for i := range q.days {
		if h := q.days[i].head; h != nil && (best == nil || h.Before(best)) {
			best = h
		}
	}
	q.work += len(q.days)
	return best
}

// resize rebuilds the wheel at n days. The day width becomes the median gap
// between the earliest calResizeInstants distinct pending instants, rounded
// down to a power of two, so a day holds about one instant of the
// near-term window whatever lies far ahead. All inputs are pending-event
// state, so the rebuild is deterministic.
func (q *calendarQueue) resize(n int) {
	defer q.mark()
	if n < calMinBuckets || n > calMaxBuckets || q.len() == 0 {
		return
	}
	evs := q.scratch[:0]
	for i := range q.days {
		for ev := q.days[i].head; ev != nil; ev = ev.next {
			evs = append(evs, ev)
		}
		q.days[i] = day{}
	}
	for q.far.Len() > 0 {
		evs = append(evs, q.far.Pop())
	}
	slices.SortFunc(evs, func(a, b *event) int {
		if a.Before(b) {
			return -1
		}
		return 1 // (at, seq) is unique, so a and b are never equal
	})

	var gaps [calResizeInstants - 1]uint64
	k, last := 0, evs[0].at
	for _, ev := range evs[1:] {
		if ev.at != last {
			gaps[k] = uint64(ev.at - last)
			last = ev.at
			if k++; k == len(gaps) {
				break
			}
		}
	}
	if k > 0 {
		slices.Sort(gaps[:k])
		q.shift = uint(min(bits.Len64(gaps[k/2])-1, calMaxShift))
	}
	if len(q.days) != n {
		q.setDays(n)
	}
	q.curDay = uint64(evs[0].at) >> q.shift
	q.near = 0
	for _, ev := range evs {
		// evs is sorted, so every chain append takes file's fast path
		// and every far push lands at the bottom of the heap.
		ev.next = nil
		if d := uint64(ev.at) >> q.shift; d-q.curDay < uint64(len(q.days)) {
			q.file(ev, &q.days[d&q.mask])
			q.near++
		} else {
			q.far.Push(ev)
		}
	}
	clear(evs)
	q.scratch = evs[:0]
}
