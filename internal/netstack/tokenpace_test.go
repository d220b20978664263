package netstack

import (
	"testing"

	"rackfab/internal/sim"
)

// 1 Gbit/s makes the arithmetic legible: 1 byte drains in 8 ns.
const testRate = 1e9

func mustPacer(t *testing.T, rate float64, window int64) *TokenPacer {
	t.Helper()
	p, err := NewTokenPacer(rate, window)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestTokenPacerRejectsBadConfig(t *testing.T) {
	if _, err := NewTokenPacer(0, 1000); err == nil {
		t.Error("want error for zero rate")
	}
	if _, err := NewTokenPacer(-1, 1000); err == nil {
		t.Error("want error for negative rate")
	}
	if _, err := NewTokenPacer(testRate, 0); err == nil {
		t.Error("want error for zero window")
	}
}

func TestTokenPacerRejectsBadGrants(t *testing.T) {
	p := mustPacer(t, testRate, 1000)
	if _, err := p.Grant(0, 0); err == nil {
		t.Error("want error for zero bytes")
	}
	if _, err := p.Grant(0, 1001); err == nil {
		t.Error("want error for a grant exceeding the window")
	}
	if _, err := p.Grant(100, 500); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Grant(99, 500); err == nil {
		t.Error("want error for a non-monotonic request time")
	}
}

// TestTokenPacerSerializesIncast is the core pacing property: with the
// window equal to the flow size, N simultaneous requests release strictly
// back to back at the drain rate — an incast turned into a line.
func TestTokenPacerSerializesIncast(t *testing.T) {
	const bytes = 1000 // drains in 8 µs at testRate
	p := mustPacer(t, testRate, bytes)
	drain := sim.Seconds(float64(bytes*8) / testRate)
	for i := 0; i < 16; i++ {
		rel, err := p.Grant(0, bytes)
		if err != nil {
			t.Fatal(err)
		}
		want := sim.Time(0).Add(sim.Duration(int64(drain) * int64(i)))
		if rel != want {
			t.Fatalf("grant %d released at %v, want %v", i, rel, want)
		}
	}
	st := p.Stats()
	if st.Grants != 16 || st.PacedBytes != 16*bytes {
		t.Errorf("stats = %+v, want 16 grants of %d bytes total", st, 16*bytes)
	}
	// Every grant after the first waited.
	if st.Deferred != 15 {
		t.Errorf("Deferred = %d, want 15", st.Deferred)
	}
	// Grant i waits i×drain; sum = drain × 15×16/2.
	if want := sim.Duration(int64(drain) * 120); st.DeferredTime != want {
		t.Errorf("DeferredTime = %v, want %v", st.DeferredTime, want)
	}
}

// TestTokenPacerCreditAccounting pins the window bookkeeping: grants pack
// the window while room remains, defer when full, and drained grants
// return their credit.
func TestTokenPacerCreditAccounting(t *testing.T) {
	p := mustPacer(t, testRate, 3000)
	// Three 1000-byte grants at t=0 fill the window without deferral.
	for i := 0; i < 3; i++ {
		rel, err := p.Grant(0, 1000)
		if err != nil {
			t.Fatal(err)
		}
		if rel != 0 {
			t.Fatalf("grant %d deferred to %v with window room free", i, rel)
		}
	}
	// The window is now full, so the fourth must wait for the oldest to
	// drain: sequential drains end at 8, 16, 24 µs — the head frees at 8 µs.
	rel, err := p.Grant(0, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if want := sim.Time(0).Add(sim.Seconds(8000e-9)); rel != want {
		t.Errorf("deferred grant released at %v, want %v", rel, want)
	}
	// A later request past every drain sees an empty window again.
	far := sim.Time(0).Add(sim.Seconds(1)) // 1 s ≫ all drains
	rel, err = p.Grant(far, 3000)
	if err != nil {
		t.Fatal(err)
	}
	if rel != far {
		t.Errorf("post-drain grant released at %v, want its request time %v", rel, far)
	}
	// Only the fresh grant is outstanding, and it fills the window: one
	// more byte waits for its 24 µs drain.
	rel, err = p.Grant(far, 1)
	if err != nil {
		t.Fatal(err)
	}
	if want := far.Add(sim.Seconds(24000e-9)); rel != want {
		t.Errorf("grant behind a full window released at %v, want %v", rel, want)
	}
}

// TestTokenPacerDrainOrderIsFIFO holds deferred releases to FIFO drain
// order even when a large grant must wait for several heads.
func TestTokenPacerDrainOrderIsFIFO(t *testing.T) {
	p := mustPacer(t, testRate, 3000)
	for i := 0; i < 3; i++ {
		if _, err := p.Grant(0, 1000); err != nil {
			t.Fatal(err)
		}
	}
	// 2000 bytes needs two heads to drain (1000+1000 freed): the grants
	// drain back to back at 8 and 16 µs, so the wide grant waits for the
	// second head, not just the first.
	rel, err := p.Grant(0, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if want := sim.Time(0).Add(sim.Seconds(16000e-9)); rel != want {
		t.Errorf("wide grant released at %v, want %v (second head's drain)", rel, want)
	}
}

// TestTokenPacerDeterministic: same request sequence, same releases —
// byte-stable across fresh pacers.
func TestTokenPacerDeterministic(t *testing.T) {
	run := func() []sim.Time {
		p := mustPacer(t, testRate, 4000)
		var out []sim.Time
		for i := 0; i < 64; i++ {
			req := sim.Time(0).Add(sim.Duration(i) * sim.Duration(sim.Microsecond))
			rel, err := p.Grant(req, 500+int64(i%3)*250)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, rel)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("release %d diverged: %v vs %v", i, a[i], b[i])
		}
	}
}
