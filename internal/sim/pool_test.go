package sim

import (
	"strings"
	"testing"
	"unsafe"
)

// TestEventReuseNoDoubleDelivery churns the engine through interleaved
// schedule/pop cycles far past the free-list's steady state and asserts
// the delivery invariants that pooling must not break: every event fires
// exactly once, and recycled storage never resurrects an old callback.
func TestEventReuseNoDoubleDelivery(t *testing.T) {
	const rounds = 200
	const batch = 50

	e := NewSized(256)
	fired := make(map[int]int)
	scheduled := 0

	for r := 0; r < rounds; r++ {
		for i := 0; i < batch; i++ {
			id := scheduled
			scheduled++
			d := Duration(1+(i*7)%13) * Nanosecond
			e.After(d, "churn", func() { fired[id]++ })
		}
		// Drain half the rounds fully, step the others partially so the
		// queue and free list keep exchanging storage.
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

// TestEventReuseRecycles proves the free list actually recycles: in steady
// state a schedule→fire cycle performs no event allocation.
func TestEventReuseRecycles(t *testing.T) {
	e := NewSized(256)
	nop := func() {}
	// Warm the free list and the heap's backing array.
	for i := 0; i < 64; i++ {
		e.After(Nanosecond, "warm", nop)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		e.After(Nanosecond, "steady", nop)
		e.Step()
	})
	if allocs > 0 {
		t.Fatalf("steady-state schedule/fire allocates %.1f objects per op, want 0", allocs)
	}
}

// recorder is a typed handler that logs each call.
type recorder struct{ got []string }

func (r *recorder) Handle(arg int, x any) {
	r.got = append(r.got, *x.(*string)+string(rune('0'+arg)))
}

// counter is a typed handler that sums its integer arguments.
type counter int

func (c *counter) Handle(arg int, _ any) { *c += counter(arg) }

// TestPostSharesOrderWithAt checks that typed events and closures ride
// one queue: same-instant events fire in schedule order whichever entry
// point scheduled them, and each typed event sees its own arguments.
func TestPostSharesOrderWithAt(t *testing.T) {
	e := NewSized(256)
	r := &recorder{}
	a, b := "a", "b"
	e.PostAt(5, r, 1, &a)
	e.At(5, "closure", func() { r.got = append(r.got, "c") })
	e.PostAfter(5, r, 2, &b)
	e.PostAt(3, r, 3, &b)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(r.got, " "); got != "b3 a1 c b2" {
		t.Fatalf("fired %q, want %q", got, "b3 a1 c b2")
	}
}

// TestPostPanicsNameHandler checks that a typed event scheduled in the
// past or with a negative delay panics, naming the handler's type.
func TestPostPanicsNameHandler(t *testing.T) {
	for _, c := range []struct {
		name string
		post func(e *Engine)
	}{
		{"past", func(e *Engine) { e.PostAt(1, &recorder{}, 0, nil) }},
		{"negative", func(e *Engine) { e.PostAfter(-1, &recorder{}, 0, nil) }},
	} {
		name, post := c.name, c.post
		e := NewSized(256)
		e.At(10, "tick", func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "*sim.recorder") {
					t.Errorf("%s: panic %q does not name the handler", name, msg)
				}
			}()
			post(e)
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRecycledEventHoldsNothing checks that a fired event goes back to
// the free list without its handler or pointer argument, so spent storage
// pins neither a closure's captures nor a frame, and that the pooled
// event stays within 72 bytes.
func TestRecycledEventHoldsNothing(t *testing.T) {
	e := NewSized(256)
	r := &recorder{}
	x := "x"
	e.PostAfter(Nanosecond, r, 7, &x)
	e.After(2*Nanosecond, "closure", func() {})
	for e.Step() {
	}
	n := 0
	for ev := e.free; ev != nil; ev = ev.next {
		if ev.h != nil || ev.x != nil {
			t.Fatalf("recycled event %d still holds handler %v, argument %v", n, ev.h, ev.x)
		}
		n++
	}
	if n != 2 {
		t.Fatalf("free list holds %d events, want 2", n)
	}
	if size := unsafe.Sizeof(event{}); size > 72 {
		t.Fatalf("pooled event is %d bytes, want at most 72", size)
	}
}

// TestPostSteadyStateZeroAlloc checks that a typed event with a pointer
// argument schedules and fires without allocating once the pool is warm.
func TestPostSteadyStateZeroAlloc(t *testing.T) {
	e := NewSized(256)
	var c counter
	x := "x"
	for i := 0; i < 64; i++ {
		e.PostAfter(Nanosecond, &c, 1, &x)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		e.PostAfter(Nanosecond, &c, 1, &x)
		e.Step()
	})
	if c != 64+1001 {
		t.Fatalf("handler ran %d times, want %d", c, 64+1001)
	}
	if allocs > 0 {
		t.Fatalf("steady-state typed schedule/fire allocates %.1f objects per op, want 0", allocs)
	}
}

// BenchmarkEngineSchedule measures the schedule→fire hot path: a rolling
// window of pending events with one scheduled and one popped per
// iteration — the regime every packet model keeps the engine in.
func BenchmarkEngineSchedule(b *testing.B) {
	e := NewSized(256)
	nop := func() {}
	const window = 128
	for i := 0; i < window; i++ {
		e.After(Duration(i+1)*Nanosecond, "fill", nop)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.After(window*Nanosecond, "bench", nop)
		e.Step()
	}
}

// BenchmarkEngineLockstep measures ns per event in the regime lockstep
// packet traffic keeps the engine in: 1024 same-instant events, each
// rescheduling 2 µs ahead, plus 32 epoch timers rescheduling 1 ms ahead.
func BenchmarkEngineLockstep(b *testing.B) {
	e := NewSized(256)
	lockstep(e)
	// Warm through the first millisecond so the wheel has settled.
	if err := e.RunUntil(Time(Millisecond)); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}
