// Package service drives a long-running cluster under open-loop load: a
// synchronous generate → inject → advance → drain → retire loop over an
// engine-agnostic Target. The driver owns the streaming statistics (FCT
// histogram, SLO attainment, retained-state accounting) so a soak never
// accumulates per-flow results.
//
// The whole package is single-goroutine by design: every tick is a plain
// function call on the caller's goroutine, so service mode inherits the
// repo's determinism story (and the detlint stray-goroutine gate) for free.
package service

import (
	"fmt"

	"rackfab/internal/sim"
	"rackfab/internal/telemetry"
	"rackfab/internal/workload"
)

// Completion is one finished flow as the target reports it out of Drain.
type Completion struct {
	Src, Dst int
	Bytes    int64
	Start    sim.Time
	FCT      sim.Duration
	Hops     int
	Label    string
}

// Target is the engine adapter the driver ticks against. Implementations
// wrap the fluid session or the packet fabric behind the same five verbs;
// all time is absolute simulation time.
type Target interface {
	// Now returns the current simulation instant.
	Now() sim.Time
	// Inject adds flows with absolute At instants (at or after Now).
	Inject(specs []workload.FlowSpec) error
	// RunFor advances simulation time by d.
	RunFor(d sim.Duration) error
	// Drain returns flows completed since the last Drain, in an order the
	// engine fixes deterministically. The result is valid until the next
	// Drain, which may reuse its storage.
	Drain() []Completion
	// Retire releases per-flow state the engine no longer needs and
	// returns how many flows it reclaimed this call.
	Retire() int
	// Retained returns the per-flow state records currently held.
	Retained() int
	// RetiredTotal returns the cumulative count of reclaimed flows.
	RetiredTotal() int64
}

// Config parameterizes a Driver.
type Config struct {
	// Tick is the generate/advance cadence (must be positive).
	Tick sim.Duration
	// Source synthesizes the open-loop arrivals.
	Source workload.ArrivalProcess
	// Ideal maps a completion to its ideal (uncontended) FCT for SLO
	// attainment; nil disables attainment accounting.
	Ideal func(c Completion) sim.Duration
	// SLOTargetX is the attainment multiplier k (FCT ≤ k × ideal attains);
	// it must be a positive number.
	SLOTargetX float64
}

// Driver runs the service loop. All statistics are streaming: state is a
// handful of counters, one histogram, and the arrival source, independent
// of how long the soak has run.
type Driver struct {
	cfg Config
	t   Target

	ticks        int64
	completed    int64
	attained     int64
	retainedPeak int
	fct          *telemetry.Histogram
}

// New builds a driver over t.
func New(cfg Config, t Target) (*Driver, error) {
	if cfg.Tick <= 0 {
		return nil, fmt.Errorf("service: tick must be positive, got %v", cfg.Tick)
	}
	if cfg.Source == nil {
		return nil, fmt.Errorf("service: an arrival source is required")
	}
	if !(cfg.SLOTargetX > 0) {
		return nil, fmt.Errorf("service: SLO target multiplier must be a positive number, got %v", cfg.SLOTargetX)
	}
	return &Driver{cfg: cfg, t: t, fct: telemetry.NewHistogram()}, nil
}

// Tick runs one service iteration: synthesize this tick's arrivals, inject
// them, advance the clock one tick, account the completions, and release
// their engine state.
func (d *Driver) Tick() error {
	to := d.t.Now().Add(d.cfg.Tick)
	if specs := d.cfg.Source.Next(to); len(specs) > 0 {
		if err := d.t.Inject(specs); err != nil {
			return err
		}
	}
	if err := d.t.RunFor(d.cfg.Tick); err != nil {
		return err
	}
	d.account(d.t.Drain())
	d.ticks++
	d.t.Retire()
	if r := d.t.Retained(); r > d.retainedPeak {
		d.retainedPeak = r
	}
	return nil
}

// RunUntil ticks until the simulation clock reaches at least until.
func (d *Driver) RunUntil(until sim.Time) error {
	for d.t.Now().Before(until) {
		if err := d.Tick(); err != nil {
			return err
		}
	}
	return nil
}

// account folds a drained completion batch into the streaming statistics.
func (d *Driver) account(cs []Completion) {
	for _, c := range cs {
		d.completed++
		d.fct.Record(int64(c.FCT))
		if d.cfg.Ideal != nil {
			if ideal := d.cfg.Ideal(c); ideal > 0 && float64(c.FCT) <= d.cfg.SLOTargetX*float64(ideal) {
				d.attained++
			}
		}
	}
}

// Stats is a snapshot of the streaming service statistics.
type Stats struct {
	// Ticks is the number of completed service iterations.
	Ticks int64
	// Injected counts every flow the engine has held, whoever injected it
	// (RetiredTotal + Retained); Completed of those finished and drained;
	// Attained of those met the SLO; Retired had their engine state
	// reclaimed.
	Injected, Completed, Attained, Retired int64
	// Retained is the engine's current per-flow state count; RetainedPeak
	// its soak-lifetime maximum — the number the flat-memory gate bounds.
	Retained, RetainedPeak int
	// AttainPct is Attained over Completed as a percentage (0 when nothing
	// completed).
	AttainPct float64
	// P50FCT, P99FCT, MaxFCT summarize the completion-time distribution.
	// P50FCT and P99FCT are histogram estimates, up to 6.25% below the
	// exact nearest-rank sample; MaxFCT is exact.
	P50FCT, P99FCT, MaxFCT sim.Duration
}

// Stats returns the current snapshot. Injected and Retired derive from the
// target: reclaimed + still-held = ever injected.
func (d *Driver) Stats() Stats {
	s := Stats{
		Ticks:        d.ticks,
		Injected:     d.t.RetiredTotal() + int64(d.t.Retained()),
		Completed:    d.completed,
		Attained:     d.attained,
		Retired:      d.t.RetiredTotal(),
		Retained:     d.t.Retained(),
		RetainedPeak: d.retainedPeak,
	}
	if d.completed > 0 {
		s.AttainPct = float64(d.attained) / float64(d.completed) * 100
		s.P50FCT = sim.Duration(d.fct.Quantile(0.5))
		s.P99FCT = sim.Duration(d.fct.Quantile(0.99))
		s.MaxFCT = sim.Duration(d.fct.Max())
	}
	return s
}

// Fingerprint renders the statistics in a fixed, byte-stable form — the
// string the soak gate and the checkpoint/restore split test compare.
func (d *Driver) Fingerprint() string {
	s := d.Stats()
	return fmt.Sprintf(
		"source=%s ticks=%d now=%d\ninjected=%d completed=%d attained=%d retired=%d retained=%d peak=%d\nfct p50=%d p99=%d max=%d\n",
		d.cfg.Source.Name(), s.Ticks, int64(d.t.Now()),
		s.Injected, s.Completed, s.Attained, s.Retired, s.Retained, s.RetainedPeak,
		int64(s.P50FCT), int64(s.P99FCT), int64(s.MaxFCT))
}
