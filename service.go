package rackfab

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"rackfab/internal/service"
	"rackfab/internal/sim"
	"rackfab/internal/workload"
)

// This file is the public service-mode surface: a long-running cluster
// under open-loop load. Serve hands either engine's backend to the
// synchronous service driver (generate → inject → advance → drain →
// retire, one tick per call); a running Service checkpoints and resumes
// byte-identically via Service.Checkpoint and ResumeService
// (checkpoint.go).

// ArrivalSpec declares an open-loop arrival process. Generated flows carry
// the label "svc".
type ArrivalSpec struct {
	// Process selects the generator: "poisson" (default) or "markov" (a
	// two-state burst/quiet MMPP whose quiet rate is a tenth of Rate, with
	// mean dwells of 1ms bursting and 4ms quiet).
	Process string
	// Seed seeds the arrival stream (default 1).
	Seed uint64
	// Rate is the arrival rate in flows per second (the burst-mode rate
	// for "markov"). Required.
	Rate float64
	// Sizes picks the flow-size distribution: "websearch" (default),
	// "datamining", "fixed:<bytes>", or "pareto:<min>:<alpha>[:<max>]".
	Sizes string
}

// The markov arrival process's fixed shape, and the label of every
// generated flow.
const (
	markovQuietDivisor = 10 // quiet-mode rate = Rate / markovQuietDivisor
	markovDwellBurst   = sim.Millisecond
	markovDwellQuiet   = 4 * sim.Millisecond
	serviceLabel       = "svc"
)

// ServeConfig parameterizes service mode. Completed flows attain the SLO
// within the cluster's Config.SLOTargetX, and the driver retires finished
// flow state every tick.
type ServeConfig struct {
	// Tick is the generate/advance cadence (default 1ms of simulated time).
	Tick time.Duration
	// Arrivals declares the load.
	Arrivals ArrivalSpec
}

// ServiceStats mirrors the driver's streaming statistics in façade units.
// Injected, Completed, Attained and Retired count every flow the engine
// holds, those Cluster.Inject added before Serve included, on both
// engines: Injected is Retired plus Retained. P50FCT and P99FCT are
// histogram estimates, up to 6.25% below the exact nearest-rank sample.
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
	wireRate := c.wireRate()
	if wireRate <= 0 {
		return nil, fmt.Errorf("rackfab: serve needs a usable link")
	}
	d, err := service.New(service.Config{
		Tick:   simDur(tick),
		Source: src,
		Ideal: func(cp service.Completion) sim.Duration {
			return workload.IdealFCT(cp.Bytes, wireRate, cp.Hops, sloPerHopLatency)
		},
		SLOTargetX: c.sloTargetX(),
	}, c.be)
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
	switch a.Process {
	case "", "poisson":
		return workload.NewPoisson(seed, nodes, a.Rate, sizes, serviceLabel)
	case "markov":
		return workload.NewMarkov(seed, workload.MarkovConfig{
			Nodes:      nodes,
			RateBurst:  a.Rate,
			RateQuiet:  a.Rate / markovQuietDivisor,
			DwellBurst: markovDwellBurst,
			DwellQuiet: markovDwellQuiet,
			Sizes:      sizes,
			Label:      serviceLabel,
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
	if s.c.fl != nil {
		tot := s.c.fl.sess.Totals()
		fp += fmt.Sprintf("solver=%+v faults=%+v\n", tot.Solver, tot.Faults)
	}
	return fp
}
