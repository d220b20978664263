package sim

// event is the pooled storage behind one scheduled callback. Once an
// event fires the engine recycles this struct through a free list.
type event struct {
	at    Time
	seq   uint64 // tie-break: schedule order within one instant
	fn    func()
	label string
	next  *event // bucket chain while pending, free-list link while recycled
}
