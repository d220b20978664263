package sim

import (
	"math/rand"
	"testing"
)

// eventQueue is a binary min-heap ordered by (at, seq): the engine's
// previous future-event list, kept here as the reference implementation
// the calendar queue is checked against.
type eventQueue struct {
	items []*event
}

func (q *eventQueue) len() int { return len(q.items) }

func (q *eventQueue) less(i, j int) bool {
	a, b := q.items[i], q.items[j]
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (q *eventQueue) swap(i, j int) { q.items[i], q.items[j] = q.items[j], q.items[i] }

func (q *eventQueue) push(e *event) {
	q.items = append(q.items, e)
	q.up(len(q.items) - 1)
}

func (q *eventQueue) pop() *event {
	n := len(q.items)
	q.swap(0, n-1)
	e := q.items[n-1]
	q.items[n-1] = nil
	q.items = q.items[:n-1]
	if len(q.items) > 0 {
		q.down(0)
	}
	return e
}

func (q *eventQueue) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q.swap(i, parent)
		i = parent
	}
}

func (q *eventQueue) down(i int) {
	n := len(q.items)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		smallest := left
		if right := left + 1; right < n && q.less(right, left) {
			smallest = right
		}
		if !q.less(smallest, i) {
			return
		}
		q.swap(i, smallest)
		i = smallest
	}
}

// TestCalendarHeapByteIdentical drives the binary heap (the engine's
// previous future-event list, kept as the reference implementation) and
// the calendar queue side by side over fuzzer-driven schedule /
// limited-pop sequences, and asserts the two pop byte-identical (at, seq)
// sequences. The op mix crosses every queue regime: same-tick bursts,
// near-term rolling windows, floods that resize the wheel, lockstep bursts
// of hundreds of events at one instant, pops that schedule at their own
// instant and at one shared next instant, a far tail past the year (held
// through resizes), and a cursor re-opened before a blocked minimum while
// far events wait. (at, seq) is a unique total order, so identical
// sequences mean identical event ordering in every model run.
func TestCalendarHeapByteIdentical(t *testing.T) {
	// -short (the race pass) keeps the differential but trims the seed ×
	// ops budget: race instrumentation multiplies the cost ~10x and three
	// seeds still cross every queue regime.
	seeds, ops := int64(8), 2500
	if testing.Short() {
		seeds, ops = 3, 1200
	}
	for seed := int64(1); seed <= seeds; seed++ {
		runCalendarDiff(t, seed, ops)
	}
}

func runCalendarDiff(t *testing.T, seed int64, ops int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var heap eventQueue
	var cal calendarQueue
	cal.init(calMinBuckets)

	seq := uint64(0)
	now := Time(0)
	reopened, farAtReopen, grownWithFar := 0, 0, 0

	schedule := func(at Time) {
		heap.push(&event{at: at, seq: seq})
		cal.push(&event{at: at, seq: seq})
		seq++
	}
	pop := func(limit Time) *event {
		c := cal.popAtMost(limit)
		var h *event
		if heap.len() > 0 && heap.items[0].at <= limit {
			h = heap.pop()
		}
		if (c == nil) != (h == nil) {
			t.Fatalf("seed %d: heap/calendar emptiness diverged at limit %v (heap nil=%v cal nil=%v)",
				seed, limit, h == nil, c == nil)
		}
		if c == nil {
			return nil
		}
		if c.at != h.at || c.seq != h.seq {
			t.Fatalf("seed %d: ordering diverged: heap popped (at=%v seq=%d), calendar popped (at=%v seq=%d)",
				seed, h.at, h.seq, c.at, c.seq)
		}
		if c.at < now {
			t.Fatalf("seed %d: calendar popped %v after %v — time went backwards", seed, c.at, now)
		}
		now = c.at
		return c
	}

	randomAt := func() Time {
		switch rng.Intn(10) {
		case 0, 1: // same tick
			return now
		case 2, 3, 4, 5: // the rolling near-term window packet models live in
			return now + Time(rng.Int63n(20_000))
		case 6, 7, 8: // microsecond-scale timeouts
			return now + Time(rng.Int63n(5_000_000))
		default: // far future: seconds away, past any year
			return now + Time(rng.Int63n(2_000_000_000_000))
		}
	}

	for op := 0; op < ops; op++ {
		switch r := rng.Intn(100); {
		case r < 34: // schedule, occasionally a same-tick burst
			at := randomAt()
			schedule(at)
			if rng.Intn(8) == 0 {
				for k := rng.Intn(12); k > 0; k-- {
					schedule(at)
				}
			}
		case r < 38: // flood: push the count past the wheel's grow threshold
			days, far := len(cal.days), cal.far.Len()
			base := randomAt()
			for k := 0; k < 80; k++ {
				schedule(base + Time(rng.Int63n(100_000)))
			}
			if len(cal.days) != days && far > 0 {
				grownWithFar++
			}
		case r < 40: // lockstep burst: every host files an event at one instant
			at := now + Time(rng.Int63n(4_000))
			for k := 256 + rng.Intn(256); k > 0; k-- {
				schedule(at)
			}
		case r < 43: // lockstep drain: each pop schedules at its own instant
			// and at one instant shared by the whole drain
			next := now + Time(1+rng.Int63n(3_000))
			for k := 16 + rng.Intn(64); k > 0; k-- {
				c := pop(Forever)
				if c == nil {
					break
				}
				if next <= c.at {
					next = c.at + Time(1+rng.Int63n(3_000))
				}
				if rng.Intn(2) == 0 {
					schedule(c.at)
				}
				schedule(next)
			}
		case r < 45: // far tail: milliseconds to seconds past any year
			for k := 1 + rng.Intn(8); k > 0; k-- {
				schedule(now + Time(1_000_000_000+rng.Int63n(2_000_000_000_000)))
			}
		case r < 48: // re-open: drain up to a gap wider than the wheel's
			// year, block a pop short of the minimum past it (moving the
			// cursor to its day), then schedule between the limit and that
			// minimum, as a mid-run Inject does
			year := Time(len(cal.days)) << cal.shift
			for heap.len() > 0 && heap.items[0].at-now <= year {
				pop(Forever)
			}
			if heap.len() == 0 {
				break
			}
			least := heap.items[0].at
			limit := now + Time(rng.Int63n(int64(least-now)))
			if pop(limit) != nil {
				t.Fatalf("seed %d: pop(%v) returned an event before the minimum %v", seed, limit, least)
			}
			// Instants at halving distances from the limit: the earliest
			// re-opens the cursor, and later ones past the shortened year
			// wait far while the blocked minimum stays on the wheel.
			cursor := cal.curDay
			gap := int64(least - limit)
			for j := 6; j >= 1; j-- {
				schedule(limit + Time(gap>>j))
			}
			if cal.curDay < cursor {
				reopened++
				if cal.far.Len() > 0 && cal.far.Min().at < least {
					farAtReopen++
				}
			}
		default: // pop, sometimes held back by a limit
			limit := Time(Forever)
			if rng.Intn(3) == 0 {
				limit = now + Time(rng.Int63n(1_000_000))
			}
			pop(limit)
		}
	}
	for heap.len() > 0 {
		pop(Forever)
	}
	if cal.len() != 0 {
		t.Fatalf("seed %d: heap drained but calendar still holds %d events", seed, cal.len())
	}
	if reopened == 0 || farAtReopen == 0 || grownWithFar == 0 {
		t.Fatalf("seed %d: %d re-opened cursors, %d with far events ahead of the blocked minimum, %d grows with far events pending; the op mix lost a regime",
			seed, reopened, farAtReopen, grownWithFar)
	}
}

// TestCalendarReuseNoDoubleDelivery is the pool-churn invariant test run
// in the regime that stresses the calendar specifically: delays spanning
// six orders of magnitude, so the wheel resizes, days wrap years, and the
// sparse fallback fires — while storage recycles through the free list.
// Every event must fire exactly once.
func TestCalendarReuseNoDoubleDelivery(t *testing.T) {
	const rounds = 120
	const batch = 60

	e := NewSized(256)
	fired := make(map[int]int)
	scheduled := 0
	delays := []Duration{
		1, 700, Nanosecond, 13 * Nanosecond, 900 * Nanosecond,
		Microsecond, 47 * Microsecond, Millisecond, 3 * Millisecond,
	}

	for r := 0; r < rounds; r++ {
		for i := 0; i < batch; i++ {
			id := scheduled
			scheduled++
			d := delays[(i*5+r)%len(delays)] + Duration(i%7)
			e.After(d, "cal-churn", func() { fired[id]++ })
		}
		if r%2 == 0 {
			if err := e.Run(); err != nil {
				t.Fatal(err)
			}
		} else {
			for s := 0; s < batch/2; s++ {
				if !e.Step() {
					break
				}
			}
		}
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for id := 0; id < scheduled; id++ {
		if n := fired[id]; n != 1 {
			t.Fatalf("event %d fired %d times, want exactly 1", id, n)
		}
	}
}

// TestScheduleBeforeBlockedMinimum pins the one path that pushes an event
// before the calendar's cursor: RunUntil blocks on a pending minimum past
// its limit (moving the cursor to that minimum's day) and leaves the clock
// at the limit, so a later At between the limit and the minimum must still
// fire first.
func TestScheduleBeforeBlockedMinimum(t *testing.T) {
	e := NewSized(256)
	var got []Time
	record := func() { got = append(got, e.Now()) }
	e.At(Time(6*Microsecond), "pending", record)
	if err := e.RunUntil(Time(5 * Microsecond)); err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 || e.Now() != Time(5*Microsecond) {
		t.Fatalf("RunUntil(5us): fired %v, clock %v; want nothing fired, clock 5us", got, e.Now())
	}
	e.At(Time(5500*Nanosecond), "late", record)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []Time{Time(5500 * Nanosecond), Time(6 * Microsecond)}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("fired at %v, want %v", got, want)
	}
}

// TestCalendarSteadyStateZeroAlloc proves the calendar's schedule→fire
// path allocates nothing once warm, including when consecutive events land
// in fresh day buckets as the clock advances around the wheel.
func TestCalendarSteadyStateZeroAlloc(t *testing.T) {
	e := NewSized(256)
	nop := func() {}
	const window = 128
	for i := 0; i < window; i++ {
		e.After(Duration(i+1)*Nanosecond, "warm", nop)
	}
	allocs := testing.AllocsPerRun(2000, func() {
		e.After(window*Nanosecond, "steady", nop)
		e.Step()
	})
	if allocs > 0 {
		t.Fatalf("steady-state schedule/fire allocates %.2f objects per op, want 0", allocs)
	}
}

// TestCalendarFarFutureOrdering pins the sparse-population fallback: a
// handful of events spread across seconds (thousands of years at the
// initial day width) still pop in exact (at, seq) order.
func TestCalendarFarFutureOrdering(t *testing.T) {
	e := NewSized(256)
	var got []Time
	times := []Time{
		Time(3 * Second), Time(Nanosecond), Time(2 * Second),
		Time(500 * Millisecond), Time(Microsecond), Time(Second),
	}
	for _, at := range times {
		at := at
		e.At(at, "sparse", func() { got = append(got, at) })
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []Time{Time(Nanosecond), Time(Microsecond), Time(500 * Millisecond),
		Time(Second), Time(2 * Second), Time(3 * Second)}
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pop %d: got %v, want %v", i, got[i], want[i])
		}
	}
}

// lockstep schedules the regime BenchmarkEngineLockstep and
// TestCalendarLockstepWorkPerPop share: 1024 hosts whose events share one
// instant, each rescheduling itself 2 µs ahead, and 32 epoch timers spread
// over a millisecond, each rescheduling 1 ms ahead.
func lockstep(e *Engine) {
	var host, epoch func()
	host = func() { e.After(2*Microsecond, "host", host) }
	epoch = func() { e.After(Millisecond, "epoch", epoch) }
	for i := 0; i < 1024; i++ {
		e.At(0, "host", host)
	}
	for i := 1; i <= 32; i++ {
		e.At(Time(i)*Time(Millisecond)/32, "epoch", epoch)
	}
}

// TestCalendarLockstepWorkPerPop pins the queue's cost in the regime the
// packet engine runs 1024 hosts in: lockstep bursts, epoch timers, and a
// far tail of fault events seconds ahead. Days scanned plus instants
// walked stay at or below calDriftFactor per pop.
func TestCalendarLockstepWorkPerPop(t *testing.T) {
	e := NewSized(256)
	lockstep(e)
	nop := func() {}
	for i := 1; i <= 64; i++ {
		e.At(Time(i)*Time(50*Millisecond), "fault", nop)
	}
	horizon := Time(3 * Millisecond)
	if testing.Short() {
		horizon = Time(Millisecond)
	}
	if err := e.RunUntil(horizon); err != nil {
		t.Fatal(err)
	}
	q := &e.queue
	perPop := float64(q.work) / float64(q.pops)
	t.Logf("%d pops, %.2f days scanned + instants walked per pop, %d days of %d ps, %d far",
		q.pops, perPop, len(q.days), 1<<q.shift, q.far.Len())
	if perPop > calDriftFactor {
		t.Fatalf("lockstep regime costs %.2f days scanned + instants walked per pop, want ≤ %d",
			perPop, calDriftFactor)
	}
	if q.far.Len() == 0 {
		t.Fatal("the fault tail never reached the far heap")
	}
}
