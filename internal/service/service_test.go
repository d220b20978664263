package service

import (
	"math"
	"testing"

	"rackfab/internal/sim"
	"rackfab/internal/workload"
)

// fakeTarget is a scripted engine: injected flows complete after a fixed
// service time, drain in injection order, and retire on request.
type fakeTarget struct {
	now     sim.Time
	delay   sim.Duration
	live    []workload.FlowSpec
	done    []Completion // completed but not yet drained
	kept    []Completion // drained but not yet retired
	retired int64

	injectErr error
	runErr    error
}

func (t *fakeTarget) Now() sim.Time { return t.now }

func (t *fakeTarget) Inject(specs []workload.FlowSpec) error {
	if t.injectErr != nil {
		return t.injectErr
	}
	t.live = append(t.live, specs...)
	return nil
}

func (t *fakeTarget) RunFor(d sim.Duration) error {
	if t.runErr != nil {
		return t.runErr
	}
	t.now = t.now.Add(d)
	kept := t.live[:0]
	for _, s := range t.live {
		if end := s.At.Add(t.delay); !end.After(t.now) {
			t.done = append(t.done, Completion{
				Src: s.Src, Dst: s.Dst, Bytes: s.Bytes,
				Start: s.At, FCT: t.delay, Hops: 1, Label: s.Label,
			})
			continue
		}
		kept = append(kept, s)
	}
	t.live = kept
	return nil
}

func (t *fakeTarget) Drain() []Completion {
	out := t.done
	t.kept = append(t.kept, out...)
	t.done = nil
	return out
}

func (t *fakeTarget) Retire() int {
	n := len(t.kept)
	t.retired += int64(n)
	t.kept = nil
	return n
}

func (t *fakeTarget) Retained() int { return len(t.live) + len(t.done) + len(t.kept) }

func (t *fakeTarget) RetiredTotal() int64 { return t.retired }

func newTestDriver(t *testing.T, cfg Config, tgt Target) *Driver {
	t.Helper()
	if cfg.Tick == 0 {
		cfg.Tick = sim.Millisecond
	}
	if cfg.Source == nil {
		src, err := workload.NewPoisson(1, 16, 5000, workload.Fixed(1000), "t")
		if err != nil {
			t.Fatal(err)
		}
		cfg.Source = src
	}
	if cfg.SLOTargetX == 0 {
		cfg.SLOTargetX = 4
	}
	d, err := New(cfg, tgt)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestDriverTickAccounting(t *testing.T) {
	tgt := &fakeTarget{delay: 100 * sim.Microsecond}
	d := newTestDriver(t, Config{
		Ideal: func(Completion) sim.Duration { return 50 * sim.Microsecond },
	}, tgt)
	if err := d.RunUntil(sim.Time(20 * sim.Millisecond)); err != nil {
		t.Fatal(err)
	}
	st := d.Stats()
	if st.Ticks != 20 {
		t.Fatalf("ticks = %d, want 20", st.Ticks)
	}
	if st.Injected == 0 || st.Completed == 0 {
		t.Fatalf("no progress: %+v", st)
	}
	if st.Injected != st.Retired+int64(st.Retained) {
		t.Fatalf("conservation broken: %+v", st)
	}
	// Every flow takes 2× ideal, within the default 4× target.
	if st.Attained != st.Completed || st.AttainPct != 100 {
		t.Fatalf("attainment: %+v", st)
	}
	if st.P50FCT != 100*sim.Microsecond || st.MaxFCT != 100*sim.Microsecond {
		t.Fatalf("fct quantiles: %+v", st)
	}
	if st.RetainedPeak <= 0 || st.RetainedPeak < st.Retained {
		t.Fatalf("retained peak: %+v", st)
	}
}

func TestDriverRetiresEveryTick(t *testing.T) {
	tgt := &fakeTarget{delay: 100 * sim.Microsecond}
	d := newTestDriver(t, Config{}, tgt)
	for i := 0; i < 10; i++ {
		if err := d.Tick(); err != nil {
			t.Fatal(err)
		}
		if len(tgt.kept) != 0 {
			t.Fatalf("tick %d left %d drained flows unretired", i, len(tgt.kept))
		}
	}
	if st := d.Stats(); st.Completed == 0 || st.Retired != st.Completed {
		t.Fatalf("retired %d of %d completed flows", st.Retired, st.Completed)
	}
}

func TestDriverSLOMiss(t *testing.T) {
	tgt := &fakeTarget{delay: 100 * sim.Microsecond}
	d := newTestDriver(t, Config{
		Ideal:      func(Completion) sim.Duration { return 10 * sim.Microsecond },
		SLOTargetX: 2, // 100µs > 2×10µs: every flow misses
	}, tgt)
	if err := d.RunUntil(sim.Time(5 * sim.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if st := d.Stats(); st.Completed == 0 || st.Attained != 0 || st.AttainPct != 0 {
		t.Fatalf("expected a full SLO miss, got %+v", st)
	}
}

func TestDriverErrorsPropagate(t *testing.T) {
	if _, err := New(Config{}, &fakeTarget{}); err == nil {
		t.Fatal("New accepted a zero Config")
	}
	src, err := workload.NewPoisson(1, 16, 5000, workload.Fixed(1000), "t")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{Tick: sim.Millisecond, Source: src, SLOTargetX: 4}, &fakeTarget{}); err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{0, -1, math.NaN()} {
		if _, err := New(Config{Tick: sim.Millisecond, Source: src, SLOTargetX: x}, &fakeTarget{}); err == nil {
			t.Fatalf("New accepted SLO target %v", x)
		}
	}

	tgt := &fakeTarget{delay: sim.Microsecond, runErr: errScripted}
	d := newTestDriver(t, Config{}, tgt)
	if err := d.Tick(); err == nil {
		t.Fatal("RunFor error did not propagate")
	}
}

var errScripted = &scriptedErr{}

type scriptedErr struct{}

func (*scriptedErr) Error() string { return "scripted failure" }
