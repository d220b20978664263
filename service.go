package rackfab

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"rackfab/internal/host"
	"rackfab/internal/service"
	"rackfab/internal/sim"
	"rackfab/internal/topo"
	"rackfab/internal/workload"
)

// This file is the public service-mode surface: a long-running cluster
// under open-loop load. Serve wraps either engine behind the synchronous
// service driver (generate → inject → advance → drain → retire, one tick
// per call); a running Service checkpoints and resumes byte-identically
// via Service.Checkpoint and ResumeService (checkpoint.go).

// ArrivalSpec declares an open-loop arrival process.
type ArrivalSpec struct {
	// Process selects the generator: "poisson" (default) or "markov" (a
	// two-state burst/quiet MMPP).
	Process string
	// Seed seeds the arrival stream (default 1).
	Seed uint64
	// Rate is the arrival rate in flows per second (the burst-mode rate
	// for "markov"). Required.
	Rate float64
	// RateQuiet is the markov quiet-mode rate (default Rate/10).
	RateQuiet float64
	// DwellBurst and DwellQuiet are the markov mean mode-dwell times
	// (defaults 1ms and 4ms).
	DwellBurst, DwellQuiet time.Duration
	// Sizes picks the flow-size distribution: "websearch" (default),
	// "datamining", "fixed:<bytes>", or "pareto:<min>:<alpha>[:<max>]".
	Sizes string
	// Label tags generated flows (default "svc").
	Label string
}

// ServeConfig parameterizes service mode.
type ServeConfig struct {
	// Tick is the generate/advance cadence (default 1ms of simulated time).
	Tick time.Duration
	// Arrivals declares the load.
	Arrivals ArrivalSpec
	// RetireEvery is the tick period of retire sweeps (default 1 = every
	// tick; negative disables retirement, letting flow state accumulate).
	RetireEvery int
	// SLOTargetX overrides the attainment multiplier (0 = the cluster's
	// Config.SLOTargetX, itself defaulting to 4). Serve rejects a negative
	// or NaN value.
	SLOTargetX float64
}

// ServiceStats mirrors the driver's streaming statistics in façade units.
type ServiceStats struct {
	Ticks                                  int64
	Injected, Completed, Attained, Retired int64
	Retained, RetainedPeak                 int
	AttainPct                              float64
	P50FCT, P99FCT, MaxFCT                 time.Duration
}

// Service is a cluster under open-loop service-mode load.
type Service struct {
	c   *Cluster
	d   *service.Driver
	cfg ServeConfig
}

// Serve starts service mode on the cluster. The cluster should be freshly
// constructed (fault schedules applied, nothing run yet); ticks then drive
// everything. Works on both engines, and so does Service.Checkpoint.
func (c *Cluster) Serve(cfg ServeConfig) (*Service, error) {
	src, err := buildArrivals(c.Nodes(), cfg.Arrivals)
	if err != nil {
		return nil, err
	}
	tick := cfg.Tick
	if tick == 0 {
		tick = time.Millisecond
	}
	if tick < 0 {
		return nil, fmt.Errorf("rackfab: serve tick must be positive, got %v", tick)
	}
	if cfg.SLOTargetX < 0 || math.IsNaN(cfg.SLOTargetX) {
		return nil, fmt.Errorf("rackfab: serve SLO target multiplier must be a non-negative number, got %v", cfg.SLOTargetX)
	}
	var wireRate float64
	for _, e := range c.graph.Edges() {
		if r := e.Link.EffectiveRate(); r > wireRate {
			wireRate = r
		}
	}
	if wireRate <= 0 {
		return nil, fmt.Errorf("rackfab: serve needs a usable link")
	}
	var tgt service.Target
	if c.fl != nil {
		tgt = &fluidServiceTarget{b: c.fl}
	} else {
		tgt = newPacketServiceTarget(c.pk, c.graph)
	}
	targetX := cfg.SLOTargetX
	if targetX == 0 {
		targetX = c.sloTargetX()
	}
	d, err := service.New(service.Config{
		Tick:   simDur(tick),
		Source: src,
		Ideal: func(cp service.Completion) sim.Duration {
			return workload.IdealFCT(cp.Bytes, wireRate, cp.Hops, sloPerHopLatency)
		},
		SLOTargetX:  targetX,
		RetireEvery: cfg.RetireEvery,
	}, tgt)
	if err != nil {
		return nil, err
	}
	if c.drivenBy == "" {
		c.drivenBy = servedBy
	} else {
		c.offScript("a second Serve")
	}
	return &Service{c: c, d: d, cfg: cfg}, nil
}

// buildArrivals lowers an ArrivalSpec onto a workload.ArrivalProcess.
func buildArrivals(nodes int, a ArrivalSpec) (workload.ArrivalProcess, error) {
	sizes, err := parseSizes(a.Sizes)
	if err != nil {
		return nil, err
	}
	seed := a.Seed
	if seed == 0 {
		seed = 1
	}
	label := a.Label
	if label == "" {
		label = "svc"
	}
	switch a.Process {
	case "", "poisson":
		return workload.NewPoisson(seed, nodes, a.Rate, sizes, label)
	case "markov":
		quiet := a.RateQuiet
		if quiet == 0 {
			quiet = a.Rate / 10
		}
		dwellB, dwellQ := a.DwellBurst, a.DwellQuiet
		if dwellB == 0 {
			dwellB = time.Millisecond
		}
		if dwellQ == 0 {
			dwellQ = 4 * time.Millisecond
		}
		return workload.NewMarkov(seed, workload.MarkovConfig{
			Nodes:      nodes,
			RateBurst:  a.Rate,
			RateQuiet:  quiet,
			DwellBurst: simDur(dwellB),
			DwellQuiet: simDur(dwellQ),
			Sizes:      sizes,
			Label:      label,
		})
	default:
		return nil, fmt.Errorf("rackfab: unknown arrival process %q (want poisson or markov)", a.Process)
	}
}

// parseSizes resolves a flow-size distribution spec string.
func parseSizes(s string) (workload.SizeDist, error) {
	switch {
	case s == "" || s == "websearch":
		return workload.WebSearch(), nil
	case s == "datamining":
		return workload.DataMining(), nil
	case strings.HasPrefix(s, "fixed:"):
		n, err := strconv.ParseInt(s[len("fixed:"):], 10, 64)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("rackfab: bad size spec %q (want fixed:<bytes>)", s)
		}
		return workload.Fixed(n), nil
	case strings.HasPrefix(s, "pareto:"):
		parts := strings.Split(s[len("pareto:"):], ":")
		if len(parts) < 2 || len(parts) > 3 {
			return nil, fmt.Errorf("rackfab: bad size spec %q (want pareto:<min>:<alpha>[:<max>])", s)
		}
		min, err1 := strconv.ParseInt(parts[0], 10, 64)
		alpha, err2 := strconv.ParseFloat(parts[1], 64)
		var max int64
		var err3 error
		if len(parts) == 3 {
			max, err3 = strconv.ParseInt(parts[2], 10, 64)
		}
		if err1 != nil || err2 != nil || err3 != nil || min < 1 || !(alpha > 0) {
			return nil, fmt.Errorf("rackfab: bad size spec %q", s)
		}
		if max < 0 || (max > 0 && max < min) {
			return nil, fmt.Errorf("rackfab: bad size spec %q (max must be 0 for no bound, or at least min)", s)
		}
		return workload.Pareto{Alpha: alpha, MinBytes: min, MaxBytes: max}, nil
	default:
		return nil, fmt.Errorf("rackfab: unknown size distribution %q", s)
	}
}

// Tick runs one service iteration.
func (s *Service) Tick() error { return s.failed(s.d.Tick()) }

// RunUntil ticks until the simulated clock reaches at least t.
func (s *Service) RunUntil(t time.Duration) error {
	return s.failed(s.d.RunUntil(sim.Time(simDur(t))))
}

// failed passes a tick's error through, noting that the failed tick may
// have half run: a checkpoint can only re-run whole ones.
func (s *Service) failed(err error) error {
	if err != nil {
		s.c.offScript("a failed Tick")
	}
	return err
}

// Now returns the current simulated time.
func (s *Service) Now() time.Duration { return s.c.Now() }

// Cluster returns the underlying cluster (reports, traces).
func (s *Service) Cluster() *Cluster { return s.c }

// Stats snapshots the streaming service statistics.
func (s *Service) Stats() ServiceStats {
	st := s.d.Stats()
	return ServiceStats{
		Ticks:        st.Ticks,
		Injected:     st.Injected,
		Completed:    st.Completed,
		Attained:     st.Attained,
		Retired:      st.Retired,
		Retained:     st.Retained,
		RetainedPeak: st.RetainedPeak,
		AttainPct:    st.AttainPct,
		P50FCT:       fromSim(st.P50FCT),
		P99FCT:       fromSim(st.P99FCT),
		MaxFCT:       fromSim(st.MaxFCT),
	}
}

// Fingerprint renders the service state in a fixed, byte-stable form: the
// driver's streaming statistics plus (fluid engine) the solver and fault
// counters. Split-run equality tests compare these bytes.
func (s *Service) Fingerprint() string {
	fp := s.d.Fingerprint()
	if s.c.fl != nil && s.c.fl.sess != nil {
		snap := s.c.fl.sess.Snapshot()
		fp += fmt.Sprintf("solver=%+v faults=%+v\n", snap.Solver, snap.Faults)
	}
	return fp
}

// ---------------------------------------------------------------------------
// Engine adapters

// fluidServiceTarget adapts the fluid backend to the service driver.
type fluidServiceTarget struct {
	b *fluidBackend
}

func (t *fluidServiceTarget) Now() sim.Time { return t.b.now() }

func (t *fluidServiceTarget) Inject(specs []workload.FlowSpec) error {
	return t.b.injectAbs(specs)
}

func (t *fluidServiceTarget) RunFor(d sim.Duration) error {
	return t.b.advanceBy(d)
}

func (t *fluidServiceTarget) Drain() []service.Completion {
	rs := t.b.drainCompleted()
	if len(rs) == 0 {
		return nil
	}
	out := make([]service.Completion, len(rs))
	for i, r := range rs {
		out[i] = service.Completion{
			Src: r.Spec.Src, Dst: r.Spec.Dst, Bytes: r.Spec.Bytes,
			Start: r.Start, FCT: r.FCT, Hops: r.Hops, Label: r.Spec.Label,
		}
	}
	return out
}

func (t *fluidServiceTarget) Retire() int { return t.b.retire() }

func (t *fluidServiceTarget) Retained() int {
	if t.b.sess == nil {
		return len(t.b.pending)
	}
	return t.b.sess.RetainedFlows()
}

func (t *fluidServiceTarget) RetiredTotal() int64 {
	if t.b.sess == nil {
		return 0
	}
	return int64(t.b.sess.Retired())
}

// packetServiceTarget adapts the packet fabric. Flow handles live here, not
// on the backend, so a soak's memory is bounded by the in-flight flow
// count: Drain removes finished flows (that is the packet engine's
// retirement — host state frees with the last reference). Hops for the
// ideal-FCT model come from a lazily built shortest-path cache.
type packetServiceTarget struct {
	b       *packetBackend
	graph   *topo.Graph
	hops    [][]int
	live    []*host.Flow
	specs   []workload.FlowSpec
	retired int64
}

func newPacketServiceTarget(b *packetBackend, g *topo.Graph) *packetServiceTarget {
	return &packetServiceTarget{b: b, graph: g, hops: make([][]int, g.NumNodes())}
}

func (t *packetServiceTarget) Now() sim.Time { return t.b.now() }

func (t *packetServiceTarget) Inject(specs []workload.FlowSpec) error {
	flows, err := t.b.fab.InjectFlows(specs)
	if err != nil {
		return err
	}
	t.live = append(t.live, flows...)
	t.specs = append(t.specs, specs...)
	return nil
}

func (t *packetServiceTarget) RunFor(d sim.Duration) error {
	return t.b.fab.RunFor(d)
}

func (t *packetServiceTarget) Drain() []service.Completion {
	var out []service.Completion
	kept := 0
	for i, f := range t.live {
		switch {
		case f.Failed():
			// Abandoned flows leave the live set (and the SLO denominator).
			t.retired++
		case f.Done():
			sp := t.specs[i]
			if t.hops[sp.Src] == nil {
				t.hops[sp.Src] = t.graph.HopsFrom(topo.NodeID(sp.Src))
			}
			h := t.hops[sp.Src][sp.Dst]
			if h < 0 {
				h = 0
			}
			out = append(out, service.Completion{
				Src: sp.Src, Dst: sp.Dst, Bytes: sp.Bytes,
				Start: f.Started(), FCT: f.FCT(), Hops: h, Label: sp.Label,
			})
			t.retired++
		default:
			t.live[kept] = f
			t.specs[kept] = t.specs[i]
			kept++
		}
	}
	for i := kept; i < len(t.live); i++ {
		t.live[i] = nil
	}
	t.live = t.live[:kept]
	t.specs = t.specs[:kept]
	return out
}

// Retire is a no-op on the packet engine: Drain already released the
// finished handles, which is all the state the façade holds.
func (t *packetServiceTarget) Retire() int { return 0 }

func (t *packetServiceTarget) Retained() int { return len(t.live) }

func (t *packetServiceTarget) RetiredTotal() int64 { return t.retired }
