package sim

import (
	"errors"
	"fmt"
)

// Engine is a single-threaded future-event-list simulator. It is not safe
// for concurrent use: all model code runs inside event callbacks on the
// goroutine that calls Run, which is the same execution model OMNeT++ uses.
type Engine struct {
	now      Time
	queue    calendarQueue
	seq      uint64
	executed uint64
	running  bool
	stopped  bool
	free     *event // recycled event storage, linked through event.next
}

// ErrStopped is returned by Run when the model called Stop before the event
// list drained.
var ErrStopped = errors.New("sim: stopped by model")

// NewSized returns an engine with the clock at zero and an empty event
// list pre-sized for roughly hint simultaneous pending events, avoiding
// calendar-growth rebuilds during the warm-up of large models.
func NewSized(hint int) *Engine {
	if hint < 0 {
		hint = 0
	}
	e := &Engine{}
	e.queue.init(hint)
	return e
}

// alloc takes event storage off the free list, or allocates fresh.
func (e *Engine) alloc() *event {
	ev := e.free
	if ev == nil {
		return &event{}
	}
	e.free = ev.next
	ev.next = nil
	return ev
}

// recycle returns a fired event to the free list. The handler and the
// pointer argument are dropped immediately, so a spent event pins neither
// a closure's captures nor a frame.
func (e *Engine) recycle(ev *event) {
	ev.h, ev.x = nil, nil
	ev.next = e.free
	e.free = ev
}

// Now returns the current simulation time.
func (e *Engine) Now() Time { return e.now }

// Executed returns the number of events executed so far.
func (e *Engine) Executed() uint64 { return e.executed }

// At schedules fn to run at instant t. Scheduling in the past panics: it is
// always a model bug, and silently reordering time would invalidate results.
// The label names the event in that panic only; pass a constant string —
// formatting a label per event puts an allocation on the hottest path in
// the simulator. Per-frame events use PostAt instead.
func (e *Engine) At(t Time, label string, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling %q at %v which is before now %v", label, t, e.now))
	}
	if fn == nil {
		panic("sim: scheduling nil callback")
	}
	e.push(t, closure(fn), 0, nil)
}

// After schedules fn to run d after the current instant. Negative d panics.
func (e *Engine) After(d Duration, label string, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: scheduling %q with negative delay %v", label, d))
	}
	e.At(e.now.Add(d), label, fn)
}

// PostAt schedules h.Handle(arg, x) at instant t. It is At for the hot
// paths: the handler and both arguments live in the pooled event, so
// nothing is allocated when h and x are pointer-shaped. Scheduling in the
// past panics, naming h's type.
func (e *Engine) PostAt(t Time, h Handler, arg int, x any) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling %T at %v which is before now %v", h, t, e.now))
	}
	if h == nil {
		panic("sim: scheduling nil handler")
	}
	e.push(t, h, arg, x)
}

// PostAfter schedules h.Handle(arg, x) d after the current instant.
// Negative d panics, naming h's type.
func (e *Engine) PostAfter(d Duration, h Handler, arg int, x any) {
	if d < 0 {
		panic(fmt.Sprintf("sim: scheduling %T with negative delay %v", h, d))
	}
	e.PostAt(e.now.Add(d), h, arg, x)
}

// push files one event at t, stamped with the next schedule sequence.
func (e *Engine) push(t Time, h Handler, arg int, x any) {
	ev := e.alloc()
	ev.at, ev.seq, ev.h, ev.arg, ev.x = t, e.seq, h, arg, x
	e.seq++
	e.queue.push(ev)
}

// Stop makes Run return after the current event completes.
func (e *Engine) Stop() { e.stopped = true }

// Step executes the single next event, advancing the clock to it. It returns
// false when the event list is empty.
func (e *Engine) Step() bool {
	ev := e.queue.popAtMost(Forever)
	if ev == nil {
		return false
	}
	e.now = ev.at
	e.executed++
	h, arg, x := ev.h, ev.arg, ev.x
	// Recycle before running: the handler sees a consistent "my event
	// is spent" world and may immediately reuse the storage for what it
	// schedules next.
	e.recycle(ev)
	h.Handle(arg, x)
	return true
}

// Run executes events until the list drains or Stop is called.
func (e *Engine) Run() error { return e.RunUntil(Forever) }

// RunUntil executes events with timestamps ≤ limit, then moves the clock to
// limit unless limit is Forever or Stop ended the run first. The clock
// never moves backwards: a limit before Now runs nothing and leaves it
// where it was.
func (e *Engine) RunUntil(limit Time) error {
	if e.running {
		return errors.New("sim: Run re-entered from inside an event")
	}
	e.running = true
	e.stopped = false
	defer func() { e.running = false }()

	for {
		ev := e.queue.popAtMost(limit)
		if ev == nil {
			if e.queue.len() > 0 {
				// Blocked on the limit with later events pending.
				if limit > e.now {
					e.now = limit
				}
				return nil
			}
			break
		}
		e.now = ev.at
		e.executed++
		h, arg, x := ev.h, ev.arg, ev.x
		e.recycle(ev)
		h.Handle(arg, x)
		if e.stopped {
			return ErrStopped
		}
	}
	if limit != Forever && limit > e.now {
		e.now = limit
	}
	return nil
}
