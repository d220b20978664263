package poc

import (
	"testing"

	"rackfab/internal/sim"
)

func TestMeasureLinearShape(t *testing.T) {
	rng := sim.NewRNG(1)
	hist, err := MeasureLinear(rng, 3, 2000, 1500)
	if err != nil {
		t.Fatal(err)
	}
	if hist.Count() != 2000 {
		t.Fatalf("samples = %d", hist.Count())
	}
	// Mean ≈ 1.23 µs NIC serialization + 4 devices × (650 ns + 1.23 µs)
	// + 3 cables × 8.6 ns ≈ 8.78 µs.
	mean := sim.Duration(hist.Mean())
	if mean < 8500*sim.Nanosecond || mean > 9100*sim.Nanosecond {
		t.Fatalf("mean = %v, want ≈8.78µs", mean)
	}
	// Jitter: p99 must exceed the mean but not wildly (σ=30ns × 4 devices).
	p99 := sim.Duration(hist.Quantile(0.99))
	if p99 <= mean || p99 > mean+sim.Duration(800*sim.Nanosecond) {
		t.Fatalf("p99 = %v vs mean %v", p99, mean)
	}
}

func TestMeasureLinearScalesWithHops(t *testing.T) {
	m1, err := MeasureLinear(sim.NewRNG(2), 1, 500, 1500)
	if err != nil {
		t.Fatal(err)
	}
	m3, err := MeasureLinear(sim.NewRNG(2), 3, 500, 1500)
	if err != nil {
		t.Fatal(err)
	}
	gap := sim.Duration(m3.Mean() - m1.Mean())
	// Two extra devices + cables ≈ 2 × (650 + 1230 + 8.6) ns ≈ 3.78 µs.
	if gap < 3600*sim.Nanosecond || gap > 3950*sim.Nanosecond {
		t.Fatalf("growth = %v per 2 hops, want ≈3.78µs", gap)
	}
}

func TestMeasureLinearValidation(t *testing.T) {
	if _, err := MeasureLinear(sim.NewRNG(1), 0, 10, 100); err == nil {
		t.Fatal("0 hops accepted")
	}
	if _, err := MeasureLinear(sim.NewRNG(1), 100, 10, 100); err == nil {
		t.Fatal("absurd chain accepted")
	}
	if _, err := MeasureLinear(sim.NewRNG(1), 1, 0, 100); err == nil {
		t.Fatal("0 frames accepted")
	}
}

func TestValidationAgreement(t *testing.T) {
	// The paper's methodology bar: the small-scale simulation must agree
	// with the hardware PoC before the large-scale results are trusted.
	rep, err := Validate(3, 300, 1500, 42)
	if err != nil {
		t.Fatal(err)
	}
	if rep.MeanErrPct > 5 {
		t.Fatalf("sim vs PoC mean error %.2f%% exceeds 5%%: sim %v hw %v",
			rep.MeanErrPct, rep.SimMean, rep.HWMean)
	}
	if rep.P99ErrPct > 10 {
		t.Fatalf("sim vs PoC p99 error %.2f%% exceeds 10%%", rep.P99ErrPct)
	}
}

func TestValidationAcrossHopCounts(t *testing.T) {
	for _, hops := range []int{1, 2, 3} {
		rep, err := Validate(hops, 200, 1500, int64(100+hops))
		if err != nil {
			t.Fatalf("hops %d: %v", hops, err)
		}
		if rep.MeanErrPct > 6 {
			t.Fatalf("hops %d: mean error %.2f%%", hops, rep.MeanErrPct)
		}
	}
}
