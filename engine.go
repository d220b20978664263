package rackfab

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"rackfab/internal/fabric"
	"rackfab/internal/faults"
	"rackfab/internal/fluid"
	"rackfab/internal/host"
	"rackfab/internal/ringctl"
	"rackfab/internal/sim"
	"rackfab/internal/telemetry"
	"rackfab/internal/topo"
	"rackfab/internal/trace"
	"rackfab/internal/workload"
)

// Engine selects the simulation backend a Cluster runs on. The two engines
// share the public API — topology construction, traffic generators, Inject,
// the Run methods, fault schedules, Report — and differ in fidelity:
// EnginePacket simulates every frame through every switch (the
// hardware-validated small-fabric model), EngineFluid models flows as fluid
// streams sharing link capacity max-min fairly (the engine the paper-style
// large-scale sweeps run on, thousands of nodes in seconds).
type Engine string

// Supported engines.
const (
	// EnginePacket is the cycle-accurate packet datapath with the Closed
	// Ring Control available. The default.
	EnginePacket Engine = "packet"
	// EngineFluid is the flow-level max-min engine. It has no frames,
	// queues, FEC, or CRC — Config.Control must be off — but runs
	// large topologies orders of magnitude faster and consumes the same
	// fault schedules.
	EngineFluid Engine = "fluid"
)

// ErrPacketOnly marks operations that exist only on the packet datapath
// (lane control, BER injection, the CRC). Test with errors.Is.
var ErrPacketOnly = errors.New("requires the packet engine (EnginePacket)")

// errPacketOnly builds the standard guard error for a named operation.
func errPacketOnly(op string) error {
	return fmt.Errorf("rackfab: %s %w", op, ErrPacketOnly)
}

// backend is the engine-agnostic surface Cluster routes the public API
// through: traffic injection, the run loop, fault application, and report
// filling. One implementation wraps the packet fabric, the other the fluid
// solver.
type backend interface {
	inject(specs []FlowSpec) ([]*Flow, error)
	runFor(d time.Duration) error
	runUntilDone(limit time.Duration) error
	now() sim.Time
	applyFaults(s *faults.Schedule) error
	flows() []*Flow
	fill(r *Report)
}

// Flow is a handle on one injected transfer, engine-agnostic: exactly one
// of pk (packet) or fb (fluid) is set.
type Flow struct {
	spec FlowSpec
	pk   *host.Flow
	fb   *fluidBackend
	id   int // batch-major fluid flow ID, valid once the fluid run started
}

// Done reports completion.
func (f *Flow) Done() bool {
	if f.pk != nil {
		return f.pk.Done()
	}
	return f.fb.status(f).Done
}

// Failed reports the flow was abandoned after repeated retransmissions.
// Fluid flows never fail — a flow a partition strands parks at rate zero
// and the run itself errors if no repair ever heals it.
func (f *Flow) Failed() bool {
	if f.pk != nil {
		return f.pk.Failed()
	}
	return false
}

// CompletionTime returns the flow completion time; it errors on unfinished
// flows.
func (f *Flow) CompletionTime() (time.Duration, error) {
	if f.pk != nil {
		if !f.pk.Done() {
			return 0, fmt.Errorf("rackfab: flow %d unfinished", f.pk.ID)
		}
		return fromSim(f.pk.FCT()), nil
	}
	st := f.fb.status(f)
	if !st.Done {
		return 0, fmt.Errorf("rackfab: flow %d→%d unfinished", f.spec.Src, f.spec.Dst)
	}
	return fromSim(st.FCT), nil
}

// Retransmits returns the number of retransmitted frames (always zero on
// the fluid engine, which has no frames).
func (f *Flow) Retransmits() int64 {
	if f.pk != nil {
		return f.pk.Retransmits()
	}
	return 0
}

// Label returns the workload label.
func (f *Flow) Label() string { return f.spec.Label }

// Endpoints returns (src, dst) node IDs.
func (f *Flow) Endpoints() (int, int) { return f.spec.Src, f.spec.Dst }

// Bytes returns the flow size.
func (f *Flow) Bytes() int64 { return f.spec.Bytes }

// window returns the flow's (start, end) instants; it errors on unfinished
// flows. Both engines feed JobCompletionTime through this.
func (f *Flow) window() (start, end sim.Time, err error) {
	if f.pk != nil {
		if !f.pk.Done() {
			return 0, 0, fmt.Errorf("rackfab: flow %d unfinished", f.pk.ID)
		}
		return f.pk.Started(), f.pk.Started().Add(f.pk.FCT()), nil
	}
	st := f.fb.status(f)
	if !st.Done {
		return 0, 0, fmt.Errorf("rackfab: flow %d→%d unfinished", f.spec.Src, f.spec.Dst)
	}
	return st.Start, st.Start.Add(st.FCT), nil
}

// ---------------------------------------------------------------------------
// Packet backend

// packetBackend drives the cycle-accurate fabric (and, when enabled, the
// Closed Ring Control).
type packetBackend struct {
	eng     *sim.Engine
	fab     *fabric.Fabric
	ctl     *ringctl.Controller
	handles []*Flow
}

func (b *packetBackend) inject(specs []FlowSpec) ([]*Flow, error) {
	wl := make([]workload.FlowSpec, len(specs))
	base := b.eng.Now()
	for i, s := range specs {
		wl[i] = workload.FlowSpec{
			Src: s.Src, Dst: s.Dst, Bytes: s.Bytes,
			At:    base.Add(simDur(s.At)),
			Label: s.Label,
		}
	}
	inner, err := b.fab.InjectFlows(wl)
	if err != nil {
		return nil, err
	}
	flows := make([]*Flow, len(inner))
	for i, fl := range inner {
		flows[i] = &Flow{spec: specs[i], pk: fl}
	}
	b.handles = append(b.handles, flows...)
	return flows, nil
}

func (b *packetBackend) runFor(d time.Duration) error {
	return b.fab.RunFor(simDur(d))
}

func (b *packetBackend) flows() []*Flow { return b.handles }

func (b *packetBackend) runUntilDone(limit time.Duration) error {
	return b.fab.RunUntilDone(sim.Time(simDur(limit)))
}

func (b *packetBackend) now() sim.Time { return b.eng.Now() }

func (b *packetBackend) applyFaults(sched *faults.Schedule) error {
	var onApply func([]faults.LinkEvent, int)
	if b.ctl != nil {
		onApply = b.ctl.NoteFaults
	}
	_, err := b.fab.ScheduleFaults(sched, onApply)
	return err
}

func (b *packetBackend) fill(r *Report) {
	st := b.fab.Stats()
	toSummary := func(h interface {
		Count() int64
		Mean() float64
		Quantile(float64) int64
		Max() int64
	}) Summary {
		const us = 1e6 // ps per µs
		return Summary{
			Count:  h.Count(),
			MeanUs: h.Mean() / us,
			P50Us:  float64(h.Quantile(0.5)) / us,
			P99Us:  float64(h.Quantile(0.99)) / us,
			MaxUs:  float64(h.Max()) / us,
		}
	}
	r.Latency = toSummary(st.Latency)
	r.FCT = toSummary(st.FCT)
	r.MeanHops = st.Hops.Mean()
	r.FramesDelivered = st.Delivered.Value()
	r.FramesDropped = st.Dropped.Value()
	r.FramesCorrupt = st.Corrupt.Value()
	r.FlowsCompleted = st.FlowsCompleted.Value()
	r.PowerPeakW = b.fab.PowerBudget().PeakW()
	r.PowerNowW = b.fab.TotalPowerW()
	r.EnergyJ = b.fab.PowerBudget().EnergyJ()
	if b.ctl != nil {
		r.CRCDecisions = len(b.ctl.Decisions())
	}
	fs := b.fab.FaultStats()
	r.Faults.CapacityEvents = fs.CapacityEvents
	r.Faults.RouteRepairs = fs.RouteRepairs
	r.Faults.Reroutes = fs.Reroutes
	r.Faults.StarvedEpisodes = fs.StarvedEpisodes
	if fs.StarvedEpisodes > 0 {
		r.Faults.MeanRecovery = fromSim(fs.StarvedTime / sim.Duration(fs.StarvedEpisodes))
	}
}

// ---------------------------------------------------------------------------
// Fluid backend

// fluidBackend adapts the incremental max-min solver to the Cluster
// surface. Before the first Run call specs accumulate and the session is
// built lazily; after it, Inject routes batches into the live session
// (batch-major flow IDs, so earlier handles never renumber).
type fluidBackend struct {
	graph   *topo.Graph
	sched   *faults.Schedule
	pending []workload.FlowSpec
	handles []*Flow
	sess    *fluid.Session
	trace   *trace.Recorder // shared with Cluster; nil = tracing off
}

func (b *fluidBackend) inject(specs []FlowSpec) ([]*Flow, error) {
	wl := make([]workload.FlowSpec, len(specs))
	base := b.now()
	for i, s := range specs {
		wl[i] = workload.FlowSpec{
			Src: s.Src, Dst: s.Dst, Bytes: s.Bytes,
			At:    base.Add(simDur(s.At)),
			Label: s.Label,
		}
	}
	flows := make([]*Flow, len(specs))
	if b.sess == nil {
		b.pending = append(b.pending, wl...)
		for i, s := range specs {
			flows[i] = &Flow{spec: s, fb: b, id: -1}
		}
	} else {
		// Mid-run injection: At values are relative to the current instant
		// (same convention as the packet engine), and previously returned
		// handles keep their IDs.
		ids, err := b.sess.Inject(wl)
		if err != nil {
			return nil, err
		}
		for i, s := range specs {
			flows[i] = &Flow{spec: s, fb: b, id: ids[i]}
		}
	}
	b.handles = append(b.handles, flows...)
	return flows, nil
}

// injectAbs injects a workload batch with absolute At instants without
// creating façade handles — the service driver's entry point, where flow
// state is drained and retired rather than held per handle.
func (b *fluidBackend) injectAbs(wl []workload.FlowSpec) error {
	if b.sess == nil {
		b.pending = append(b.pending, wl...)
		return nil
	}
	_, err := b.sess.Inject(wl)
	return err
}

// ensure seals the spec set and builds the session, resolving every
// handle's canonical flow ID.
func (b *fluidBackend) ensure() error {
	if b.sess != nil {
		return nil
	}
	sess, err := fluid.NewSession(fluid.Config{Graph: b.graph, Faults: b.sched, Trace: b.trace}, b.pending)
	if err != nil {
		return err
	}
	b.sess = sess
	order := sess.Order()
	for i, f := range b.handles {
		f.id = order[i]
	}
	return nil
}

func (b *fluidBackend) runFor(d time.Duration) error {
	return b.advanceBy(simDur(d))
}

// advanceBy advances the session clock by d.
func (b *fluidBackend) advanceBy(d sim.Duration) error {
	if err := b.ensure(); err != nil {
		return err
	}
	return b.sess.Advance(b.sess.Now().Add(d))
}

func (b *fluidBackend) runUntilDone(limit time.Duration) error {
	if err := b.ensure(); err != nil {
		return err
	}
	if err := b.sess.AdvanceUntilDone(sim.Time(simDur(limit))); err != nil {
		return err
	}
	if !b.sess.Done() {
		return fmt.Errorf("rackfab: %d flows unfinished at %v", b.sess.Remaining(), fromSim(sim.Duration(b.sess.Now())))
	}
	return nil
}

// drainCompleted hands off the session's completions accumulated since the
// last drain (nil before the run starts).
func (b *fluidBackend) drainCompleted() []fluid.FlowResult {
	if b.sess == nil {
		return nil
	}
	return b.sess.TakeCompleted()
}

// retire executes a prefix retirement of completed flow state.
func (b *fluidBackend) retire() int {
	if b.sess == nil {
		return 0
	}
	return b.sess.Retire()
}

func (b *fluidBackend) flows() []*Flow { return b.handles }

func (b *fluidBackend) now() sim.Time {
	if b.sess == nil {
		return 0
	}
	return b.sess.Now()
}

func (b *fluidBackend) applyFaults(sched *faults.Schedule) error {
	if b.sess != nil {
		return fmt.Errorf("rackfab: the fluid engine accepts fault schedules only before the first Run call")
	}
	if b.sched == nil {
		b.sched = sched
	} else {
		b.sched = b.sched.Merge(sched)
	}
	return nil
}

// status resolves one handle's live progress.
func (b *fluidBackend) status(f *Flow) fluid.FlowStatus {
	if b.sess == nil || f.id < 0 {
		return fluid.FlowStatus{}
	}
	return b.sess.FlowStatus(f.id)
}

func (b *fluidBackend) fill(r *Report) {
	if b.sess == nil {
		return
	}
	snap := b.sess.Snapshot()
	r.FlowsCompleted = int64(len(snap.Flows))
	if n := len(snap.Flows); n > 0 {
		const us = 1e6 // ps per µs
		fcts := make([]sim.Duration, n)
		var sum float64
		var hops int64
		for i, fl := range snap.Flows {
			fcts[i] = fl.FCT
			sum += float64(fl.FCT)
			hops += int64(fl.Hops)
		}
		sort.Slice(fcts, func(i, j int) bool { return fcts[i] < fcts[j] })
		r.FCT = Summary{
			Count:  int64(n),
			MeanUs: sum / float64(n) / us,
			P50Us:  float64(fcts[telemetry.NearestRank(n, 50)]) / us,
			P99Us:  float64(fcts[telemetry.NearestRank(n, 99)]) / us,
			MaxUs:  float64(fcts[n-1]) / us,
		}
		r.MeanHops = float64(hops) / float64(n)
	}
	r.Faults = FaultReport{
		CapacityEvents:  snap.Faults.CapacityEvents,
		RouteRepairs:    snap.Faults.RouteRepairs,
		Reroutes:        snap.Faults.Reroutes,
		StarvedEpisodes: snap.Faults.StarvedEpisodes,
	}
	if snap.Faults.StarvedEpisodes > 0 {
		r.Faults.MeanRecovery = fromSim(snap.Faults.StarvedTime / sim.Duration(snap.Faults.StarvedEpisodes))
	}
	r.Solver = SolverReport{
		WarmHits:      snap.Solver.WarmHits,
		WarmFallbacks: snap.Solver.WarmFallbacks,
		ColdFills:     snap.Solver.ColdFills,
		WarmHitPct:    snap.Solver.WarmHitPct(),
	}
}
