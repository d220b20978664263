package main

import (
	"fmt"
	"time"

	"rackfab"
	"rackfab/internal/fabric"
	"rackfab/internal/faults"
	"rackfab/internal/fluid"
	"rackfab/internal/phy"
	"rackfab/internal/route"
	"rackfab/internal/service"
	"rackfab/internal/sim"
	"rackfab/internal/switching"
	"rackfab/internal/topo"
	"rackfab/internal/workload"
)

// The traced run feeds the same generated inputs through each layer's own
// public API, mirroring what the façade does with them, so its digest must
// equal the façade's: if it does not, the traced run measured a different
// program. With a nil tracer the same code is the untraced internal pass the
// façade overhead and the tracing overhead are measured against.

// sloPerHopLatency mirrors the façade's per-hop term of the ideal FCT.
const sloPerHopLatency = 450 * sim.Nanosecond

func simDur(d time.Duration) sim.Duration { return sim.Duration(d.Nanoseconds()) * sim.Nanosecond }

func simNs(d sim.Duration) int64 { return int64(d) / int64(sim.Nanosecond) }

func graphOf(cfg rackfab.Config) *topo.Graph {
	opts := topo.Options{Media: phy.Backplane}
	if cfg.Topology == rackfab.Torus {
		return topo.NewTorus(cfg.Width, cfg.Height, opts)
	}
	return topo.NewGrid(cfg.Width, cfg.Height, opts)
}

func toWorkload(specs []rackfab.FlowSpec) []workload.FlowSpec {
	out := make([]workload.FlowSpec, len(specs))
	for i, s := range specs {
		out[i] = workload.FlowSpec{Src: s.Src, Dst: s.Dst, Bytes: s.Bytes, At: sim.Time(simDur(s.At)), Label: s.Label}
	}
	return out
}

// lowerFaults resolves fault specs against g exactly as the façade does:
// time-sorted, link endpoints mapped to edge indexes.
func lowerFaults(g *topo.Graph, specs []rackfab.FaultSpec) (*faults.Schedule, error) {
	var evs []faults.Event
	for _, s := range rackfab.NewFaultSchedule(specs...).Events() {
		ev := faults.Event{At: sim.Time(simDur(s.At)), Frac: s.Frac}
		switch s.Kind {
		case rackfab.LinkDown, rackfab.LinkUp:
			e, ok := g.EdgeBetween(topo.NodeID(s.A), topo.NodeID(s.B))
			if !ok {
				return nil, fmt.Errorf("no link %d-%d", s.A, s.B)
			}
			ev.Target, ev.Kind = e.Index(), faults.LinkDown
			if s.Kind == rackfab.LinkUp {
				ev.Kind = faults.LinkUp
			}
		case rackfab.NodeDown, rackfab.NodeUp:
			ev.Target, ev.Kind = s.Node, faults.NodeDown
			if s.Kind == rackfab.NodeUp {
				ev.Kind = faults.NodeUp
			}
		default:
			return nil, fmt.Errorf("fault kind %v not generated by this benchmark", s.Kind)
		}
		evs = append(evs, ev)
	}
	return faults.New(evs...), nil
}

// internalFluid runs fluid-perm through fluid.NewSession/Advance.
func internalFluid(in *batchInput, tr *tracer) (*pass, error) {
	a0 := allocBytes()
	t0 := hostNow()
	g := graphOf(in.cfg)
	sp := tr.begin("fluid.new_session")
	sess, err := fluid.NewSession(fluid.Config{Graph: g}, toWorkload(in.specs))
	if err == nil {
		err = sess.Advance(0)
	}
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	t1 := hostNow()
	sp = tr.begin("fluid.advance")
	err = sess.AdvanceUntilDone(sim.Time(simDur(simLimit)))
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	p := &pass{setup: t1.Sub(t0), wall: hostSince(t1), alloc: allocBytes() - a0}
	fh := newFlowHash()
	order := sess.Order()
	for i, s := range in.specs {
		st := sess.FlowStatus(order[i])
		fh.add(s.Src, s.Dst, st.Done, simNs(st.FCT))
	}
	p.digest, p.attempted, p.failed = fh.sum(), fh.attempted, fh.failed
	return p, nil
}

// packetRun is internalPacket's result plus what the layer probes need.
type packetRun struct {
	*pass
	events uint64
	frames int64
	sched  *faults.Schedule
	end    sim.Time
}

// internalPacket runs packet-churn through sim.NewSized, fabric.New,
// InjectFlows, ScheduleFaults and RunUntilDone with the façade's packet
// settings (frame trains of 16, cut-through switching, the cluster seed).
func internalPacket(in *batchInput, tr *tracer) (*packetRun, error) {
	a0 := allocBytes()
	t0 := hostNow()
	g := graphOf(in.cfg)
	sp := tr.begin("sim.new")
	eng := sim.NewSized(4 * g.NumNodes())
	fcfg := fabric.DefaultConfig(g)
	fcfg.Seed = in.cfg.Seed
	fcfg.Host.TrainLength = 16
	fcfg.Switch.Mode = switching.CutThrough
	fab, err := fabric.New(eng, fcfg)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("sim.inject")
	flows, err := fab.InjectFlows(toWorkload(in.specs))
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("sim.faults")
	sched, err := lowerFaults(g, in.faults)
	if err == nil {
		_, err = fab.ScheduleFaults(sched, nil)
	}
	if err == nil {
		err = fab.RunFor(0)
	}
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	t1 := hostNow()
	sp = tr.begin("sim.run")
	err = fab.RunUntilDone(sim.Time(simDur(simLimit)))
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	r := &packetRun{pass: &pass{setup: t1.Sub(t0), wall: hostSince(t1), alloc: allocBytes() - a0}}
	fh := newFlowHash()
	for i, f := range flows {
		fh.add(in.specs[i].Src, in.specs[i].Dst, f.Done() && !f.Failed(), simNs(f.FCT()))
	}
	r.digest, r.attempted, r.failed = fh.sum(), fh.attempted, fh.failed
	r.events, r.frames = eng.Executed(), fab.Stats().Delivered.Value()
	r.sched, r.end = sched, eng.Now()
	return r, nil
}

// probeRouteBuild times route.Build on a fresh copy of the workload's graph
// and returns its duration and the bytes it allocated.
func probeRouteBuild(cfg rackfab.Config, tr *tracer) (time.Duration, uint64) {
	g := graphOf(cfg)
	a0 := allocBytes()
	sp := tr.begin("route.build")
	t0 := hostNow()
	_ = route.Build(g, route.UniformCost)
	d := hostSince(t0)
	tr.end(sp)
	return d, allocBytes() - a0
}

// probeRepair replays the packet run's fault instants (those the run reached)
// on a fresh graph and table, timing one RepairBatch per instant as the
// fabric does. Returns the time spent and the columns rebuilt.
func probeRepair(cfg rackfab.Config, sched *faults.Schedule, until sim.Time, tr *tracer) (time.Duration, int, error) {
	g := graphOf(cfg)
	tbl := route.Build(g, route.UniformCost)
	evs, err := sched.Links(g)
	if err != nil {
		return 0, 0, err
	}
	byIdx := make([]*topo.Edge, g.EdgeIndexBound())
	for _, e := range g.Edges() {
		byIdx[e.Index()] = e
	}
	var total time.Duration
	cols := 0
	for start := 0; start < len(evs) && evs[start].At <= until; {
		end := start
		for end < len(evs) && evs[end].At == evs[start].At {
			end++
		}
		edges := make([]*topo.Edge, 0, end-start)
		for _, ev := range evs[start:end] {
			e := byIdx[ev.Edge]
			e.SetEnabled(ev.Factor > 0)
			edges = append(edges, e)
		}
		sp := tr.begin("route.repair")
		t0 := hostNow()
		cols += tbl.RepairBatch(g, route.UniformCost, edges)
		total += hostSince(t0)
		tr.end(sp)
		start = end
	}
	return total, cols, nil
}

// sessTarget is the benchmark's service.Target over a fluid.Session,
// mirroring the façade's fluid service target without its journal.
type sessTarget struct {
	g       *topo.Graph
	pending []workload.FlowSpec
	sess    *fluid.Session
	tr      *tracer
}

func (t *sessTarget) Now() sim.Time {
	if t.sess == nil {
		return 0
	}
	return t.sess.Now()
}

func (t *sessTarget) Inject(specs []workload.FlowSpec) error {
	sp := t.tr.begin("service.inject")
	defer t.tr.end(sp)
	if t.sess == nil {
		t.pending = append(t.pending, specs...)
		return nil
	}
	f := t.tr.begin("fluid.inject")
	defer t.tr.end(f)
	_, err := t.sess.Inject(specs)
	return err
}

func (t *sessTarget) RunFor(d sim.Duration) error {
	sp := t.tr.begin("service.advance")
	defer t.tr.end(sp)
	if t.sess == nil {
		f := t.tr.begin("fluid.new_session")
		sess, err := fluid.NewSession(fluid.Config{Graph: t.g}, t.pending)
		t.tr.end(f)
		if err != nil {
			return err
		}
		t.sess, t.pending = sess, nil
	}
	f := t.tr.begin("fluid.advance")
	defer t.tr.end(f)
	return t.sess.Advance(t.sess.Now().Add(d))
}

func (t *sessTarget) Drain() []service.Completion {
	sp := t.tr.begin("service.drain")
	defer t.tr.end(sp)
	if t.sess == nil {
		return nil
	}
	rs := t.sess.TakeCompleted()
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

func (t *sessTarget) Retire() int {
	sp := t.tr.begin("service.retire")
	defer t.tr.end(sp)
	if t.sess == nil {
		return 0
	}
	f := t.tr.begin("fluid.retire")
	defer t.tr.end(f)
	return t.sess.Retire()
}

func (t *sessTarget) Retained() int {
	if t.sess == nil {
		return len(t.pending)
	}
	return t.sess.RetainedFlows()
}

func (t *sessTarget) RetiredTotal() int64 {
	if t.sess == nil {
		return 0
	}
	return int64(t.sess.Retired())
}

// timedSource wraps the arrival process in a workload.next span.
type timedSource struct {
	workload.ArrivalProcess
	tr *tracer
}

func (s timedSource) Next(to sim.Time) []workload.FlowSpec {
	sp := s.tr.begin("workload.next")
	defer s.tr.end(sp)
	return s.ArrivalProcess.Next(to)
}

// internalSoak runs service-soak through service.New over sessTarget:
// in.warm set-up ticks, then in.ticks timed ticks, one span id per tick.
func internalSoak(in *soakInput, tr *tracer) (*pass, error) {
	a0 := allocBytes()
	t0 := hostNow()
	g := graphOf(in.cfg)
	a := in.scfg.Arrivals
	src, err := workload.NewPoisson(a.Seed, g.NumNodes(), a.Rate, workload.WebSearch(), "svc")
	if err != nil {
		return nil, err
	}
	var wire float64
	for _, e := range g.Edges() {
		if r := e.Link.EffectiveRate(); r > wire {
			wire = r
		}
	}
	tgt := &sessTarget{g: g, tr: tr}
	drv, err := service.New(service.Config{
		Tick:   simDur(in.scfg.Tick),
		Source: timedSource{src, tr},
		Ideal: func(c service.Completion) sim.Duration {
			return workload.IdealFCT(c.Bytes, wire, c.Hops, sloPerHopLatency)
		},
		SLOTargetX: 4,
	}, tgt)
	if err != nil {
		return nil, err
	}
	p := &pass{ticks: make([]time.Duration, in.ticks)}
	var t1 time.Time
	for i := 0; i < in.warm+in.ticks; i++ {
		if i == in.warm {
			t1 = hostNow()
			p.setup = t1.Sub(t0)
		}
		tr.setID(int64(i))
		sp := tr.begin("service.tick")
		s := hostNow()
		err := drv.Tick()
		if i >= in.warm {
			p.ticks[i-in.warm] = hostSince(s)
		}
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("tick %d: %w", i, err)
		}
	}
	p.wall = hostSince(t1)
	p.attempted = int64(in.warm + in.ticks)
	fp := drv.Fingerprint()
	if tgt.sess != nil {
		snap := tgt.sess.Snapshot()
		fp += fmt.Sprintf("solver=%+v faults=%+v\n", snap.Solver, snap.Faults)
	}
	p.digest = digestString(fp)
	st := drv.Stats()
	p.injected, p.retainedPeak = st.Injected, st.RetainedPeak
	p.alloc = allocBytes() - a0
	return p, nil
}
