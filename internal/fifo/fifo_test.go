package fifo

import "testing"

// TestQueueMatchesSlice drives a Queue and a plain slice FIFO through the
// same interleaved pushes and pops, wrapping the ring and growing it while
// wrapped, and checks every popped value and length.
func TestQueueMatchesSlice(t *testing.T) {
	var q Queue[int]
	var ref []int
	next := 0
	for round := 0; round < 200; round++ {
		for i := 0; i < round%7+1; i++ {
			q.Push(next)
			ref = append(ref, next)
			next++
		}
		for i := 0; i < round%5 && len(ref) > 0; i++ {
			if got := *q.Front(); got != ref[0] {
				t.Fatalf("round %d: front %d, want %d", round, got, ref[0])
			}
			if got := q.Pop(); got != ref[0] {
				t.Fatalf("round %d: popped %d, want %d", round, got, ref[0])
			}
			ref = ref[1:]
		}
		if q.Len() != len(ref) {
			t.Fatalf("round %d: len %d, want %d", round, q.Len(), len(ref))
		}
	}
	for len(ref) > 0 {
		if got := q.Pop(); got != ref[0] {
			t.Fatalf("drain: popped %d, want %d", got, ref[0])
		}
		ref = ref[1:]
	}
	if q.Len() != 0 {
		t.Fatalf("drained queue has len %d", q.Len())
	}
}

// TestQueuePopClearsAndReuses checks that a popped slot holds no pointer
// and that a queue cycling below its grown size allocates nothing.
func TestQueuePopClearsAndReuses(t *testing.T) {
	var q Queue[*int]
	for i := 0; i < 8; i++ {
		v := i
		q.Push(&v)
	}
	for q.Len() > 0 {
		q.Pop()
	}
	for i, p := range q.buf {
		if p != nil {
			t.Fatalf("slot %d still holds a popped pointer", i)
		}
	}
	v := 1
	allocs := testing.AllocsPerRun(1000, func() {
		for i := 0; i < 5; i++ {
			q.Push(&v)
		}
		for i := 0; i < 5; i++ {
			q.Pop()
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state push/pop allocates %.1f objects per run, want 0", allocs)
	}
	if len(q.buf) != 8 {
		t.Fatalf("buffer grew to %d slots, want the 8 it already had", len(q.buf))
	}
}
