package sim

import (
	"testing"
)

// TestEventReuseNoDoubleDelivery churns the engine through interleaved
// schedule/pop cycles far past the free-list's steady state and asserts
// the delivery invariants that pooling must not break: every event fires
// exactly once, and recycled storage never resurrects an old callback.
func TestEventReuseNoDoubleDelivery(t *testing.T) {
	const rounds = 200
	const batch = 50

	e := New()
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
	e := New()
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

// BenchmarkEngineSchedule measures the schedule→fire hot path: a rolling
// window of pending events with one scheduled and one popped per
// iteration — the regime every packet model keeps the engine in.
func BenchmarkEngineSchedule(b *testing.B) {
	e := New()
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
	e := New()
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
