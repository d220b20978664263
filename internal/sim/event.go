package sim

// event is the pooled storage behind one scheduled callback. Once an
// event fires the engine recycles this struct through a free list.
type event struct {
	at    Time
	seq   uint64 // tie-break: schedule order within one instant
	fn    func()
	label string
	next  *event // day chain while pending, free-list link while recycled
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
