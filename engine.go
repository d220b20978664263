package rackfab

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"rackfab/internal/fabric"
	"rackfab/internal/faults"
	"rackfab/internal/fluid"
	"rackfab/internal/host"
	"rackfab/internal/ringctl"
	"rackfab/internal/service"
	"rackfab/internal/sim"
	"rackfab/internal/topo"
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
	// hops returns the shortest live-path hop count from src to dst, -1
	// when dst is unreachable, for calls grouped by source.
	hops() func(src, dst int) int
}

// Flow is a handle on one injected transfer, engine-agnostic: exactly one
// of pk (packet) or fb (fluid) is set.
type Flow struct {
	spec FlowSpec
	pk   *host.Flow
	fb   *fluidBackend
	id   int               // batch-major fluid flow ID
	fin  *fluid.FlowStatus // the fluid flow's final status, once Retire copied it
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
// Every injected flow, the service driver's and the façade's alike, stays
// in live only until Drain sees it finish, as the fluid session holds every
// flow until it retires; a soak's live set is bounded by the in-flight flow
// count. That is the packet engine's retirement, as host state frees with
// the last reference. done, drained and hc are Drain's reused storage.
type packetBackend struct {
	fab     *fabric.Fabric
	ctl     *ringctl.Controller
	handles []*Flow

	live    []*host.Flow
	retired int64

	done    []*host.Flow
	drained []service.Completion
	hc      *topo.HopCounter
}

func (b *packetBackend) inject(specs []FlowSpec) ([]*Flow, error) {
	inner, err := b.fab.InjectFlows(lowerSpecs(specs, b.Now()))
	if err != nil {
		return nil, err
	}
	flows := make([]*Flow, len(inner))
	for i, fl := range inner {
		flows[i] = &Flow{spec: specs[i], pk: fl}
	}
	b.handles = append(b.handles, flows...)
	b.live = append(b.live, inner...)
	return flows, nil
}

func (b *packetBackend) Inject(specs []workload.FlowSpec) error {
	flows, err := b.fab.InjectFlows(specs)
	if err != nil {
		return err
	}
	b.live = append(b.live, flows...)
	return nil
}

func (b *packetBackend) RunFor(d sim.Duration) error { return b.fab.RunFor(d) }

func (b *packetBackend) flows() []*Flow { return b.handles }

func (b *packetBackend) runUntilDone(limit time.Duration) error {
	return b.fab.RunUntilDone(sim.Time(simDur(limit)))
}

func (b *packetBackend) Now() sim.Time { return b.fab.Engine().Now() }

// Drain hands off the flows finished since the last drain, grouped by
// source: their hop counts come from one snapshot of the live links,
// with one search per distinct source. The result is valid until the next
// Drain.
func (b *packetBackend) Drain() []service.Completion {
	done := b.done[:0]
	kept := 0
	for _, f := range b.live {
		switch {
		case f.Failed():
			// Abandoned flows leave the live set (and the SLO denominator).
			b.retired++
		case f.Done():
			done = append(done, f)
			b.retired++
		default:
			b.live[kept] = f
			kept++
		}
	}
	clear(b.live[kept:])
	b.live = b.live[:kept]
	if len(done) == 0 {
		return nil
	}
	slices.SortStableFunc(done, func(x, y *host.Flow) int { return cmp.Compare(x.Src, y.Src) })
	if b.hc == nil {
		b.hc = b.fab.Graph().NewHopCounter()
	} else {
		b.hc.Refresh()
	}
	var hops []int
	out := b.drained[:0]
	for i, f := range done {
		if i == 0 || f.Src != done[i-1].Src {
			hops = b.hc.From(topo.NodeID(f.Src))
		}
		out = append(out, service.Completion{
			Src: f.Src, Dst: f.Dst, Bytes: f.Bytes,
			Start: f.Started(), FCT: f.FCT(), Hops: max(hops[f.Dst], 0),
		})
	}
	// Drop the finished flows' references, so their host state can be
	// freed; the buffer keeps only its storage.
	clear(done)
	b.done, b.drained = done[:0], out
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

// hops counts with one breadth-first search per distinct source over a
// snapshot of the live links: the packet table may be priced by the CRC,
// so its distances are not hop counts.
func (b *packetBackend) hops() func(src, dst int) int {
	hc := b.fab.Graph().NewHopCounter()
	from, counts := -1, []int(nil)
	return func(src, dst int) int {
		if src != from {
			from, counts = src, hc.From(topo.NodeID(src))
		}
		return counts[dst]
	}
}

// ---------------------------------------------------------------------------
// Fluid backend

// fluidBackend adapts the incremental max-min solver to the Cluster
// surface. New builds the session; every Inject is its own batch with
// batch-major flow IDs, so earlier handles never renumber, and fault
// schedules merge into the session's replay at any time. handles are in
// flow-ID order, and handles[:copied] hold their final status, which
// Retire copies before the session drops it. drained is Drain's reused
// result.
type fluidBackend struct {
	sess    *fluid.Session
	handles []*Flow
	copied  int
	drained []service.Completion
}

// inject lowers specs against the current instant (the packet engine's
// convention) and hands them to the session as one batch.
func (b *fluidBackend) inject(specs []FlowSpec) ([]*Flow, error) {
	ids, err := b.sess.Inject(lowerSpecs(specs, b.Now()))
	if err != nil {
		return nil, err
	}
	flows := make([]*Flow, len(specs))
	for i, s := range specs {
		flows[i] = &Flow{spec: s, fb: b, id: ids[i]}
	}
	b.handles = append(b.handles, flows...)
	slices.SortFunc(b.handles[len(b.handles)-len(flows):], func(x, y *Flow) int { return cmp.Compare(x.id, y.id) })
	return flows, nil
}

func (b *fluidBackend) Inject(wl []workload.FlowSpec) error {
	_, err := b.sess.Inject(wl)
	return err
}

func (b *fluidBackend) RunFor(d sim.Duration) error {
	return b.sess.Advance(b.sess.Now().Add(d))
}

func (b *fluidBackend) runUntilDone(limit time.Duration) error {
	if err := b.sess.AdvanceUntilDone(sim.Time(simDur(limit))); err != nil {
		return err
	}
	if !b.sess.Done() {
		return fmt.Errorf("rackfab: %d flows unfinished at %v", b.sess.Remaining(), fromSim(sim.Duration(b.sess.Now())))
	}
	return nil
}

// Drain hands off the session's completions accumulated since the last
// drain. The result is valid until the next Drain.
func (b *fluidBackend) Drain() []service.Completion {
	rs := b.sess.TakeCompleted()
	if len(rs) == 0 {
		return nil
	}
	b.drained = b.drained[:0]
	for _, r := range rs {
		b.drained = append(b.drained, service.Completion{
			Src: r.Spec.Src, Dst: r.Spec.Dst, Bytes: r.Spec.Bytes,
			Start: r.Start, FCT: r.FCT, Hops: r.Hops, Label: r.Spec.Label,
		})
	}
	return b.drained
}

// Retire lets the session drop the state of its longest finished ID
// prefix. It first copies each leading finished handle's status into the
// handle: handles are in ID order, so every handle the prefix can cross is
// copied and keeps its answer.
func (b *fluidBackend) Retire() int {
	for ; b.copied < len(b.handles); b.copied++ {
		f := b.handles[b.copied]
		st := b.sess.FlowStatus(f.id)
		if !st.Done {
			break
		}
		f.fin = &st
	}
	return b.sess.Retire()
}

func (b *fluidBackend) Retained() int { return b.sess.RetainedFlows() }

func (b *fluidBackend) RetiredTotal() int64 { return int64(b.sess.Retired()) }

func (b *fluidBackend) flows() []*Flow { return b.handles }

func (b *fluidBackend) Now() sim.Time { return b.sess.Now() }

func (b *fluidBackend) applyFaults(sched *faults.Schedule) error {
	return b.sess.ApplyFaults(sched)
}

// status resolves one handle's progress: the copy Retire kept, else the
// session's record.
func (b *fluidBackend) status(f *Flow) fluid.FlowStatus {
	if f.fin != nil {
		return *f.fin
	}
	return b.sess.FlowStatus(f.id)
}

func (b *fluidBackend) fill(r *Report) {
	tot := b.sess.Totals()
	if tot.Completed > 0 {
		r.MeanHops = float64(tot.Hops) / float64(tot.Completed)
	}
	r.Faults = faultReport(tot.Faults)
	r.Solver = SolverReport{
		WarmHits:      tot.Solver.WarmHits,
		WarmFallbacks: tot.Solver.WarmFallbacks,
		ColdFills:     tot.Solver.ColdFills,
		WarmHitPct:    tot.Solver.WarmHitPct(),
	}
}

// hops reads the session's route table, which prices every live link at 1,
// so its distances are the hop counts.
func (b *fluidBackend) hops() func(src, dst int) int {
	return func(src, dst int) int {
		d := b.sess.Distance(src, dst)
		if math.IsInf(d, 1) {
			return -1
		}
		return int(d)
	}
}
