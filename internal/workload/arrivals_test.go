package workload

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"rackfab/internal/sim"
)

// specLine renders a FlowSpec byte-stably for fingerprint comparison.
func specLine(s FlowSpec) string {
	return fmt.Sprintf("%d->%d %dB at=%d %s", s.Src, s.Dst, s.Bytes, int64(s.At), s.Label)
}

// drainFingerprint runs the process over [0, horizon) in steps of tick and
// returns the concatenated spec lines.
func drainFingerprint(p ArrivalProcess, horizon sim.Time, tick sim.Duration) string {
	var buf bytes.Buffer
	for t := sim.Time(0); t.Before(horizon); {
		t = t.Add(tick)
		if t.After(horizon) {
			t = horizon
		}
		for _, s := range p.Next(t) {
			buf.WriteString(specLine(s))
			buf.WriteByte('\n')
		}
	}
	return buf.String()
}

func newTestPoisson(t *testing.T) *Poisson {
	t.Helper()
	p, err := NewPoisson(7, 16, 50e3, WebSearch(), "svc")
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func newTestMarkov(t *testing.T) *Markov {
	t.Helper()
	m, err := NewMarkov(11, MarkovConfig{
		Nodes:      16,
		RateBurst:  200e3,
		RateQuiet:  10e3,
		DwellBurst: 50 * sim.Microsecond,
		DwellQuiet: 200 * sim.Microsecond,
		Sizes:      Pareto{Alpha: 1.3, MinBytes: 1 << 10, MaxBytes: 1 << 20},
		Label:      "svc",
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestArrivalsTickInvariant: the arrival sequence must not depend on how the
// horizon is sliced into Next calls — the property the service driver's
// checkpoint/restore proof leans on.
func TestArrivalsTickInvariant(t *testing.T) {
	const horizon = sim.Time(2 * sim.Millisecond)
	for _, tc := range []struct {
		name string
		make func() ArrivalProcess
	}{
		{"poisson", func() ArrivalProcess { return newTestPoisson(t) }},
		{"markov", func() ArrivalProcess { return newTestMarkov(t) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			coarse := drainFingerprint(tc.make(), horizon, 500*sim.Microsecond)
			fine := drainFingerprint(tc.make(), horizon, 7*sim.Microsecond)
			oneShot := drainFingerprint(tc.make(), horizon, sim.Duration(horizon))
			if coarse == "" {
				t.Fatal("no arrivals generated")
			}
			if coarse != fine || coarse != oneShot {
				t.Fatalf("arrival sequence depends on tick slicing:\ncoarse %d bytes, fine %d bytes, one-shot %d bytes",
					len(coarse), len(fine), len(oneShot))
			}
		})
	}
}

// TestNextValidUntilNextCall holds each process's Next to its window: a
// result stays intact until the next call, which reuses its storage, and
// the results taken one window at a time are a one-shot Next's flows. A
// warmed Next allocates nothing.
func TestNextValidUntilNextCall(t *testing.T) {
	for _, tc := range []struct {
		name string
		make func() ArrivalProcess
	}{
		{"poisson", func() ArrivalProcess { return newTestPoisson(t) }},
		{"markov", func() ArrivalProcess { return newTestMarkov(t) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const tick = 100 * sim.Microsecond
			horizon := sim.Time(0).Add(20 * tick)
			p := tc.make()
			var all, held, heldCopy []FlowSpec
			reused := 0
			for to := sim.Time(0).Add(tick); !to.After(horizon); to = to.Add(tick) {
				if !slices.Equal(held, heldCopy) {
					t.Fatalf("before Next(%v): the last result changed", to)
				}
				_ = p.Name()
				next := p.Next(to)
				if len(held) > 0 && len(next) > 0 && &held[0] == &next[0] {
					reused++
				}
				held, heldCopy = next, slices.Clone(next)
				all = append(all, next...)
			}
			if reused == 0 {
				t.Fatal("no Next reused the previous result's storage")
			}
			if want := tc.make().Next(horizon); !slices.Equal(all, want) {
				t.Fatalf("windowed Next gave %d flows, one-shot %d, or they differ", len(all), len(want))
			}
			to := horizon
			if allocs := testing.AllocsPerRun(100, func() {
				to = to.Add(tick)
				p.Next(to)
			}); allocs != 0 {
				t.Fatalf("a warmed Next allocates %.0f times, want 0", allocs)
			}
		})
	}
}

// TestArrivalsShape sanity-checks the generated specs: valid endpoints,
// positive sizes, non-decreasing At, and that the Markov process actually
// modulates (bursty windows denser than quiet ones).
func TestArrivalsShape(t *testing.T) {
	const horizon = sim.Time(5 * sim.Millisecond)
	for _, tc := range []struct {
		name string
		p    ArrivalProcess
	}{
		{"poisson", newTestPoisson(t)},
		{"markov", newTestMarkov(t)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			specs := tc.p.Next(horizon)
			if len(specs) < 10 {
				t.Fatalf("only %d arrivals over %v", len(specs), horizon)
			}
			last := sim.Time(0)
			for i, s := range specs {
				if s.Src < 0 || s.Src >= 16 || s.Dst < 0 || s.Dst >= 16 || s.Src == s.Dst {
					t.Fatalf("spec %d: bad endpoints %d->%d", i, s.Src, s.Dst)
				}
				if s.Bytes < 1 {
					t.Fatalf("spec %d: bad size %d", i, s.Bytes)
				}
				if s.At.Before(last) || !s.At.Before(horizon) {
					t.Fatalf("spec %d: At %v out of order or past horizon", i, s.At)
				}
				last = s.At
			}
		})
	}
}

// TestSampleUQuantiles pins the quantile path shared by all three SizeDist
// implementations against the properties the arrival processes rely on.
func TestSampleUQuantiles(t *testing.T) {
	dists := []SizeDist{
		Fixed(4096),
		Pareto{Alpha: 1.3, MinBytes: 1 << 10, MaxBytes: 1 << 24},
		WebSearch(),
		DataMining(),
	}
	for _, d := range dists {
		lo := d.SampleU(0)
		hi := d.SampleU(0.999999)
		if lo < 1 || hi < 1 {
			t.Fatalf("%s: SampleU below 1 (lo=%d hi=%d)", d.Name(), lo, hi)
		}
		if hi < lo {
			t.Fatalf("%s: quantile not monotone (lo=%d hi=%d)", d.Name(), lo, hi)
		}
	}
	// Empirical.Sample now routes through SampleU; the byte-stream must be
	// unchanged — one Float64 draw per sample, same interpolation.
	rng := sim.NewRNG(42)
	want := rng.Float64()
	rng2 := sim.NewRNG(42)
	if got := WebSearch().SampleU(want); got != WebSearch().Sample(rng2) {
		t.Fatalf("Empirical.Sample diverged from SampleU(rng.Float64())")
	}
}
