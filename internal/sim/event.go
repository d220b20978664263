package sim

// Handler is a typed event callback. PostAt stores the handler and its two
// arguments in the pooled event itself, so a per-frame event allocates
// nothing as long as h and x are pointer-shaped: a model object (or a
// named pointer type over one, one per event kind) and, say, a frame.
type Handler interface {
	Handle(arg int, x any)
}

// closure adapts At's callback to Handler. A func value is
// pointer-shaped, so storing one in an event's interface does not
// allocate: closures and typed events share one event type and one
// dispatch path.
type closure func()

func (fn closure) Handle(int, any) { fn() }

// event is the pooled storage behind one scheduled handler. Once an
// event fires the engine recycles this struct through a free list.
type event struct {
	at   Time
	seq  uint64 // tie-break: schedule order within one instant
	h    Handler
	x    any
	arg  int
	next *event // day chain while pending, free-list link while recycled
	// runEnd is read only on the first event of a run (the events of one
	// day sharing an instant): it points at the run's last event, so a
	// push into the middle of a day skips whole instants.
	runEnd *event
}

// Before orders events by (at, seq), the engine's unique total order; it
// makes *event a heapx element for the calendar's far heap.
func (ev *event) Before(o *event) bool {
	return ev.at < o.at || (ev.at == o.at && ev.seq < o.seq)
}
