// Package fifo provides Queue, a first-in first-out queue over a circular
// buffer: the packet datapath's NIC send queues and switch VOQs. A full
// buffer doubles, popping clears the vacated slot, and storage is reused
// from then on, so a queue in steady state allocates nothing and pins
// nothing it no longer holds.
package fifo

// Queue is a FIFO over a circular buffer. The zero value is an empty
// queue.
type Queue[T any] struct {
	buf  []T
	head int32 // index of the first element
	n    int32 // element count
}

// Len returns the number of queued elements.
func (q *Queue[T]) Len() int { return int(q.n) }

// Front returns the first element in place. The queue must not be empty;
// the pointer is valid until the next Push or Pop.
func (q *Queue[T]) Front() *T { return &q.buf[q.head] }

// Push appends v at the tail, doubling a full buffer (from 4 slots).
func (q *Queue[T]) Push(v T) {
	size := len(q.buf)
	if int(q.n) == size {
		buf := make([]T, max(2*size, 4))
		k := copy(buf, q.buf[q.head:])
		copy(buf[k:], q.buf[:q.head])
		q.buf, q.head, size = buf, 0, len(buf)
	}
	i := int(q.head) + int(q.n)
	if i >= size {
		i -= size
	}
	q.buf[i] = v
	q.n++
}

// Pop removes and returns the first element and clears its slot. The
// queue must not be empty.
func (q *Queue[T]) Pop() T {
	var zero T
	v := q.buf[q.head]
	q.buf[q.head] = zero
	if q.head++; int(q.head) == len(q.buf) {
		q.head = 0
	}
	q.n--
	return v
}
