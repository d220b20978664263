package telemetry

import (
	"math"
	"testing"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if c.Value() != 42 {
		t.Fatalf("counter = %d", c.Value())
	}
}

func TestCounterNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	var c Counter
	c.Add(-1)
}

func TestEWMAPriming(t *testing.T) {
	e := NewEWMA(0.2)
	if e.Value() != 0 {
		t.Fatalf("value %v before any sample, want 0", e.Value())
	}
	e.Observe(100)
	if e.Value() != 100 {
		t.Fatalf("first observation should prime directly, got %v", e.Value())
	}
}

func TestEWMAConvergence(t *testing.T) {
	e := NewEWMA(0.1)
	for i := 0; i < 200; i++ {
		e.Observe(50)
	}
	if math.Abs(e.Value()-50) > 1e-9 {
		t.Fatalf("EWMA did not converge: %v", e.Value())
	}
	// Step change: must move most of the way within ~2/alpha observations.
	for i := 0; i < 40; i++ {
		e.Observe(100)
	}
	if e.Value() < 90 {
		t.Fatalf("EWMA too sluggish: %v", e.Value())
	}
}

func TestEWMABadAlphaPanics(t *testing.T) {
	for _, a := range []float64{0, -1, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("alpha %v accepted", a)
				}
			}()
			NewEWMA(a)
		}()
	}
}
