package rackfab

import (
	"fmt"
	"time"

	"rackfab/internal/sim"
	"rackfab/internal/workload"
)

// FlowSpec describes one transfer to inject: Bytes from Src to Dst
// starting At (simulated time from now).
type FlowSpec struct {
	Src, Dst int
	Bytes    int64
	At       time.Duration
	Label    string
}

// Inject schedules flows into the cluster and returns their handles. Both
// engines accept injections at any time, including mid-run: At is relative
// to the current simulated instant. On the fluid engine every call is one
// batch with batch-major flow IDs (canonical within the batch), so handles
// from earlier batches never renumber.
func (c *Cluster) Inject(specs []FlowSpec) ([]*Flow, error) {
	c.offScript("Inject")
	return c.be.inject(specs)
}

// UniformTraffic generates open-loop uniform-random flows: count flows of
// size bytes between random distinct pairs with Poisson arrivals (mean
// inter-arrival 2 µs). The cluster's seed drives the draw.
func UniformTraffic(c *Cluster, count int, size int64) []FlowSpec {
	rng := sim.NewRNG(c.cfg.Seed).Split("traffic/uniform")
	specs := workload.Uniform(rng, workload.UniformConfig{
		Nodes: c.Nodes(), Flows: count,
		Size:             workload.Fixed(size),
		MeanInterarrival: 2 * sim.Microsecond,
	})
	return fromWorkload(specs)
}

// ShuffleTraffic generates one MapReduce shuffle: every node sends
// bytesPerPair to every other node (the paper's motivating all-to-all).
func ShuffleTraffic(c *Cluster, bytesPerPair int64) []FlowSpec {
	rng := sim.NewRNG(c.cfg.Seed).Split("traffic/shuffle")
	specs := workload.Shuffle(rng, workload.ShuffleConfig{
		Mappers:      workload.Range(c.Nodes()),
		Reducers:     workload.Range(c.Nodes()),
		BytesPerPair: bytesPerPair,
		Jitter:       10 * sim.Microsecond,
	})
	return fromWorkload(specs)
}

// IncastTraffic generates a fanIn-to-one burst into dst.
func IncastTraffic(c *Cluster, dst, fanIn int, size int64) []FlowSpec {
	rng := sim.NewRNG(c.cfg.Seed).Split("traffic/incast")
	return fromWorkload(workload.Incast(rng, c.Nodes(), dst, fanIn, workload.Fixed(size)))
}

// HotspotTraffic generates skewed traffic: frac of count flows target the
// first hot nodes.
func HotspotTraffic(c *Cluster, count, hot int, frac float64, size int64) []FlowSpec {
	rng := sim.NewRNG(c.cfg.Seed).Split("traffic/hotspot")
	specs := workload.Hotspot(rng, workload.HotspotConfig{
		Nodes: c.Nodes(), Flows: count,
		Size:             workload.Fixed(size),
		HotNodes:         hot,
		HotFraction:      frac,
		MeanInterarrival: 2 * sim.Microsecond,
	})
	return fromWorkload(specs)
}

// PermutationTraffic generates one random permutation: every node sends
// size bytes to a distinct random partner simultaneously — the workload the
// large-scale evaluation ladder (E8/E10) runs. The cluster's seed drives
// the draw.
func PermutationTraffic(c *Cluster, size int64) []FlowSpec {
	rng := sim.NewRNG(c.cfg.Seed).Split("traffic/permutation")
	return fromWorkload(workload.Permutation(rng, c.Nodes(), workload.Fixed(size)))
}

// RingAllReduceTraffic generates the ring all-reduce collective as
// barrier-synchronized phases for RunPhases: 2·(N−1) ring rotations of
// bytes/N chunks. The schedule is a pure function of the node count and
// size — no randomness.
func RingAllReduceTraffic(c *Cluster, bytes int64) ([][]FlowSpec, error) {
	if c.Nodes() < 2 {
		return nil, fmt.Errorf("rackfab: ring all-reduce needs ≥2 nodes")
	}
	if bytes <= 0 {
		return nil, fmt.Errorf("rackfab: ring all-reduce needs positive bytes")
	}
	return fromPhases(workload.RingAllReduce(c.Nodes(), bytes)), nil
}

// HalvingDoublingTraffic generates the recursive-halving/doubling
// all-reduce as phases for RunPhases: 2·log2(N) pairwise-exchange steps.
// The cluster's node count must be a power of two.
func HalvingDoublingTraffic(c *Cluster, bytes int64) ([][]FlowSpec, error) {
	n := c.Nodes()
	if n < 2 || n&(n-1) != 0 {
		return nil, fmt.Errorf("rackfab: halving-doubling all-reduce needs a power-of-two node count, got %d", n)
	}
	if bytes <= 0 {
		return nil, fmt.Errorf("rackfab: halving-doubling all-reduce needs positive bytes")
	}
	return fromPhases(workload.HalvingDoubling(n, bytes)), nil
}

// AllToAllTraffic generates one synchronized all-to-all shuffle phase
// (every node sends bytesPerPair to every other node, released together) in
// RunPhases form — the deterministic, phase-shaped sibling of
// ShuffleTraffic, which jitters arrivals for open-loop runs.
func AllToAllTraffic(c *Cluster, bytesPerPair int64) ([][]FlowSpec, error) {
	if c.Nodes() < 2 {
		return nil, fmt.Errorf("rackfab: all-to-all needs ≥2 nodes")
	}
	if bytesPerPair <= 0 {
		return nil, fmt.Errorf("rackfab: all-to-all needs a positive pair size")
	}
	return fromPhases([][]workload.FlowSpec{workload.AllToAll(c.Nodes(), bytesPerPair)}), nil
}

func fromPhases(phases [][]workload.FlowSpec) [][]FlowSpec {
	out := make([][]FlowSpec, len(phases))
	for p, ph := range phases {
		out[p] = fromWorkload(ph)
	}
	return out
}

func fromWorkload(specs []workload.FlowSpec) []FlowSpec {
	out := make([]FlowSpec, len(specs))
	for i, s := range specs {
		out[i] = FlowSpec{
			Src: s.Src, Dst: s.Dst, Bytes: s.Bytes,
			At:    fromSim(s.At.Duration()),
			Label: s.Label,
		}
	}
	return out
}

// JobCompletionTime returns the barrier completion time of a flow group —
// MapReduce's "reducer waits for all mappers" — on either engine. It errors
// if any flow is unfinished.
func JobCompletionTime(flows []*Flow) (time.Duration, error) {
	if len(flows) == 0 {
		return 0, fmt.Errorf("rackfab: empty job")
	}
	var earliest, latest sim.Time
	for i, f := range flows {
		start, end, err := f.window()
		if err != nil {
			return 0, err
		}
		if i == 0 || start.Before(earliest) {
			earliest = start
		}
		if end.After(latest) {
			latest = end
		}
	}
	return fromSim(latest.Sub(earliest)), nil
}

// psPerUs converts simulator picoseconds to Summary's microseconds.
const psPerUs = 1e6

// Summary condenses a latency/size distribution for reports.
type Summary struct {
	Count        int64
	MeanUs       float64
	P50Us, P99Us float64
	MaxUs        float64
}

// FaultReport summarizes applied fault churn. Every field counts on both
// engines: the packet engine accounts at flow granularity per fault
// instant (a flow whose forwarding path a fault cut either reroutes or
// opens a starvation episode, closed when a repair heals it), in addition
// to the frame-level retransmissions and FCT inflation the fault also
// causes there.
type FaultReport struct {
	// CapacityEvents counts applied per-link capacity changes (node loss
	// lowered to its incident links).
	CapacityEvents int64
	// RouteRepairs counts the routing-table destination columns whose
	// distances a fault moved, each repaired in place over the nodes whose
	// distance changes. A column that only re-derives tie masks is not
	// counted.
	RouteRepairs int64
	// Reroutes counts flows moved to a new path mid-flight.
	Reroutes int64
	// StarvedEpisodes counts flows a partition pinned at rate zero for a
	// positive span of simulated time.
	StarvedEpisodes int64
	// MeanRecovery is the mean starved time per episode — the mean service
	// recovery time after a failure no immediate reroute could absorb.
	MeanRecovery time.Duration
}

// SolverReport describes how the fluid engine's incremental refills were
// solved (zero-valued on the packet engine): the warm-start oracle's hit
// rate over all fills.
type SolverReport struct {
	WarmHits      int64
	WarmFallbacks int64
	ColdFills     int64
	// WarmHitPct is WarmHits over all fills, as a percentage.
	WarmHitPct float64
}

// Report is a cluster-wide results snapshot, unified across engines:
// frame-level sections (Latency, Frames*, Power*, CRCDecisions) are
// packet-engine instruments, Solver is a fluid-engine instrument, and
// FCT, MeanHops, FlowsCompleted, Faults and SLO fill on both.
// FlowsCompleted, FCT and SLO come from the flows Inject returned, the
// same way on both engines, with exact nearest-rank percentiles; flows a
// Service injected have no handle and are not counted.
type Report struct {
	// Latency is the end-to-end frame latency distribution, a histogram
	// estimate: its percentiles read up to 6.25% below the exact sample.
	Latency Summary
	// FCT is the flow-completion-time distribution.
	FCT Summary
	// MeanHops is the mean switch-traversal count (per delivered frame on
	// the packet engine, per completed flow on the fluid engine).
	MeanHops float64
	// FramesDelivered, FramesDropped, FramesCorrupt count datapath events.
	FramesDelivered, FramesDropped, FramesCorrupt int64
	// FlowsCompleted counts the handles whose flows finished — the same
	// count on either engine for the same completed workload.
	FlowsCompleted int64
	// PowerPeakW and PowerNowW describe the rack envelope.
	PowerPeakW, PowerNowW float64
	// EnergyJ is the integrated consumption.
	EnergyJ float64
	// CRCDecisions counts logged controller actions.
	CRCDecisions int
	// Faults summarizes applied fault churn; zero-valued on fault-free
	// runs.
	Faults FaultReport
	// Solver reports the fluid solver's warm-start telemetry; zero-valued
	// on the packet engine.
	Solver SolverReport
	// SLO summarizes completion-time SLO attainment over completed flows;
	// zero-valued until a flow completes. Fills on both engines.
	SLO SLOReport
}

// Report snapshots the cluster's instruments.
func (c *Cluster) Report() Report {
	var r Report
	c.be.fill(&r)
	c.fillFlows(&r)
	return r
}

// String renders the report as a compact block. The fault and solver
// sections print only when non-zero — a fault-free packet report reads
// exactly as it always has.
func (r Report) String() string {
	s := fmt.Sprintf(
		"frames: %d delivered, %d dropped, %d corrupt\n"+
			"latency: mean %.2fus p50 %.2fus p99 %.2fus max %.2fus (mean hops %.2f)\n"+
			"flows: %d complete, FCT p50 %.2fus p99 %.2fus\n"+
			"power: now %.1fW peak %.1fW energy %.3fJ\n"+
			"crc decisions: %d",
		r.FramesDelivered, r.FramesDropped, r.FramesCorrupt,
		r.Latency.MeanUs, r.Latency.P50Us, r.Latency.P99Us, r.Latency.MaxUs, r.MeanHops,
		r.FlowsCompleted, r.FCT.P50Us, r.FCT.P99Us,
		r.PowerNowW, r.PowerPeakW, r.EnergyJ,
		r.CRCDecisions,
	)
	if r.Faults != (FaultReport{}) {
		s += fmt.Sprintf(
			"\nfaults: %d capacity events, %d route columns repaired, %d reroutes, %d starvation episodes (mean recovery %v)",
			r.Faults.CapacityEvents, r.Faults.RouteRepairs,
			r.Faults.Reroutes, r.Faults.StarvedEpisodes, r.Faults.MeanRecovery,
		)
	}
	if r.Solver != (SolverReport{}) {
		s += fmt.Sprintf(
			"\nsolver: warm fills %.1f%% (%d warm, %d fallback, %d cold)",
			r.Solver.WarmHitPct, r.Solver.WarmHits, r.Solver.WarmFallbacks, r.Solver.ColdFills,
		)
	}
	if r.SLO.Flows > 0 {
		s += fmt.Sprintf(
			"\nslo: %.1f%% within %.0fx ideal (%d/%d flows), stretch p50 %.2f p99 %.2f max %.2f",
			r.SLO.AttainPct, r.SLO.TargetX, r.SLO.Attained, r.SLO.Flows,
			r.SLO.P50Stretch, r.SLO.P99Stretch, r.SLO.MaxStretch,
		)
	}
	return s
}
