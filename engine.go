package rackfab

import (
	"errors"
	"fmt"
	"time"

	"rackfab/internal/fabric"
	"rackfab/internal/faults"
	"rackfab/internal/fluid"
	"rackfab/internal/host"
	"rackfab/internal/ringctl"
	"rackfab/internal/service"
	"rackfab/internal/sim"
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
// solver. Each is also the service driver's target, so Serve ticks the
// backend itself; its Inject takes absolute instants and makes no façade
// handles.
type backend interface {
	service.Target
	inject(specs []FlowSpec) ([]*Flow, error)
	runUntilDone(limit time.Duration) error
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
	start, end, err := f.window()
	return fromSim(end.Sub(start)), err
}

// result returns the flow's start instant and its exact completion time
// in simulator picoseconds, and whether it finished (a failed flow did
// not).
func (f *Flow) result() (start sim.Time, fct sim.Duration, ok bool) {
	if f.pk != nil {
		if !f.pk.Done() || f.pk.Failed() {
			return 0, 0, false
		}
		return f.pk.Started(), f.pk.FCT(), true
	}
	st := f.fb.status(f)
	return st.Start, st.FCT, st.Done
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
	start, fct, ok := f.result()
	if !ok {
		return 0, 0, fmt.Errorf("rackfab: flow %d→%d unfinished", f.spec.Src, f.spec.Dst)
	}
	return start, start.Add(fct), nil
}

// lowerSpecs converts façade specs, whose At is relative to base, to the
// engines' absolute-instant form.
func lowerSpecs(specs []FlowSpec, base sim.Time) []workload.FlowSpec {
	wl := make([]workload.FlowSpec, len(specs))
	for i, s := range specs {
		wl[i] = workload.FlowSpec{
			Src: s.Src, Dst: s.Dst, Bytes: s.Bytes,
			At:    base.Add(simDur(s.At)),
			Label: s.Label,
		}
	}
	return wl
}

// faultReport converts an engine's fault counters to Report units.
func faultReport(fs faults.Stats) FaultReport {
	r := FaultReport{
		CapacityEvents:  fs.CapacityEvents,
		RouteRepairs:    fs.RouteRepairs,
		Reroutes:        fs.Reroutes,
		StarvedEpisodes: fs.StarvedEpisodes,
	}
	if fs.StarvedEpisodes > 0 {
		r.MeanRecovery = fromSim(fs.StarvedTime / sim.Duration(fs.StarvedEpisodes))
	}
	return r
}

// ---------------------------------------------------------------------------
// Packet backend

// packetBackend drives the cycle-accurate fabric (and, when enabled, the
// Closed Ring Control). Flows injected through the façade keep handles.
// Flows the service driver injects stay in live and specs only until Drain
// sees them finish, so a soak's memory is bounded by the in-flight flow
// count: that is the packet engine's retirement, as host state frees with
// the last reference. hops caches shortest-path hop counts for the
// ideal-FCT model, built per source on first use.
type packetBackend struct {
	eng     *sim.Engine
	fab     *fabric.Fabric
	ctl     *ringctl.Controller
	handles []*Flow

	live    []*host.Flow
	specs   []workload.FlowSpec
	retired int64
	hops    [][]int
}

func (b *packetBackend) inject(specs []FlowSpec) ([]*Flow, error) {
	inner, err := b.fab.InjectFlows(lowerSpecs(specs, b.eng.Now()))
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

func (b *packetBackend) Inject(specs []workload.FlowSpec) error {
	flows, err := b.fab.InjectFlows(specs)
	if err != nil {
		return err
	}
	b.live = append(b.live, flows...)
	b.specs = append(b.specs, specs...)
	return nil
}

func (b *packetBackend) RunFor(d sim.Duration) error { return b.fab.RunFor(d) }

func (b *packetBackend) flows() []*Flow { return b.handles }

func (b *packetBackend) runUntilDone(limit time.Duration) error {
	return b.fab.RunUntilDone(sim.Time(simDur(limit)))
}

func (b *packetBackend) Now() sim.Time { return b.eng.Now() }

func (b *packetBackend) Drain() []service.Completion {
	g := b.fab.Graph()
	if b.hops == nil {
		b.hops = make([][]int, g.NumNodes())
	}
	var out []service.Completion
	kept := 0
	for i, f := range b.live {
		switch {
		case f.Failed():
			// Abandoned flows leave the live set (and the SLO denominator).
			b.retired++
		case f.Done():
			sp := b.specs[i]
			if b.hops[sp.Src] == nil {
				b.hops[sp.Src] = g.HopsFrom(topo.NodeID(sp.Src))
			}
			h := b.hops[sp.Src][sp.Dst]
			if h < 0 {
				h = 0
			}
			out = append(out, service.Completion{
				Src: sp.Src, Dst: sp.Dst, Bytes: sp.Bytes,
				Start: f.Started(), FCT: f.FCT(), Hops: h, Label: sp.Label,
			})
			b.retired++
		default:
			b.live[kept] = f
			b.specs[kept] = b.specs[i]
			kept++
		}
	}
	for i := kept; i < len(b.live); i++ {
		b.live[i] = nil
	}
	b.live = b.live[:kept]
	b.specs = b.specs[:kept]
	return out
}

// Retire is a no-op on the packet engine: Drain already released the
// finished flows, which is all the state the backend holds for them.
func (b *packetBackend) Retire() int { return 0 }

func (b *packetBackend) Retained() int { return len(b.live) }

func (b *packetBackend) RetiredTotal() int64 { return b.retired }

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
	r.Latency = Summary{
		Count:  st.Latency.Count(),
		MeanUs: st.Latency.Mean() / psPerUs,
		P50Us:  float64(st.Latency.Quantile(0.5)) / psPerUs,
		P99Us:  float64(st.Latency.Quantile(0.99)) / psPerUs,
		MaxUs:  float64(st.Latency.Max()) / psPerUs,
	}
	r.MeanHops = st.Hops.Mean()
	r.FramesDelivered = st.Delivered.Value()
	r.FramesDropped = st.Dropped.Value()
	r.FramesCorrupt = st.Corrupt.Value()
	r.PowerPeakW = b.fab.PowerBudget().PeakW()
	r.PowerNowW = b.fab.TotalPowerW()
	r.EnergyJ = b.fab.PowerBudget().EnergyJ()
	if b.ctl != nil {
		r.CRCDecisions = len(b.ctl.Decisions())
	}
	r.Faults = faultReport(b.fab.FaultStats())
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
	wl := lowerSpecs(specs, b.Now())
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

func (b *fluidBackend) Inject(wl []workload.FlowSpec) error {
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

func (b *fluidBackend) RunFor(d sim.Duration) error {
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

// Drain hands off the session's completions accumulated since the last
// drain (none before the run starts).
func (b *fluidBackend) Drain() []service.Completion {
	if b.sess == nil {
		return nil
	}
	rs := b.sess.TakeCompleted()
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

// Retire executes a prefix retirement of completed flow state.
func (b *fluidBackend) Retire() int {
	if b.sess == nil {
		return 0
	}
	return b.sess.Retire()
}

func (b *fluidBackend) Retained() int {
	if b.sess == nil {
		return len(b.pending)
	}
	return b.sess.RetainedFlows()
}

func (b *fluidBackend) RetiredTotal() int64 {
	if b.sess == nil {
		return 0
	}
	return int64(b.sess.Retired())
}

func (b *fluidBackend) flows() []*Flow { return b.handles }

func (b *fluidBackend) Now() sim.Time {
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
	if n := len(snap.Flows); n > 0 {
		var hops int64
		for _, fl := range snap.Flows {
			hops += int64(fl.Hops)
		}
		r.MeanHops = float64(hops) / float64(n)
	}
	r.Faults = faultReport(snap.Faults)
	r.Solver = SolverReport{
		WarmHits:      snap.Solver.WarmHits,
		WarmFallbacks: snap.Solver.WarmFallbacks,
		ColdFills:     snap.Solver.ColdFills,
		WarmHitPct:    snap.Solver.WarmHitPct(),
	}
}
