package rackfab

import (
	"math"
	"strings"
	"testing"
	"time"

	"rackfab/internal/phy"
	"rackfab/internal/sim"
	"rackfab/internal/switching"
	"rackfab/internal/telemetry"
	"rackfab/internal/topo"
	"rackfab/internal/trace"
	"rackfab/internal/workload"
)

// incastSpecs returns the canonical 16→1 pattern the token-vs-VLB
// differential and e12 share: fanIn sources burst size bytes into dst at
// t=0 on a cluster of at least fanIn+1 nodes.
func incastSpecs(t *testing.T, c *Cluster, dst, fanIn int, size int64) []FlowSpec {
	t.Helper()
	specs := IncastTraffic(c, dst, fanIn, size)
	if len(specs) != fanIn {
		t.Fatalf("incast generated %d flows, want %d", len(specs), fanIn)
	}
	return specs
}

// TestSLOReportAgreesAcrossEngines mirrors
// TestFaultReportFieldsAgreeAcrossEngines for the SLO section: the same
// small incast on the same topology must yield the same attainment counts
// on both engines whenever the workload — not engine fidelity — decides
// the outcome. The engines' stretch distributions genuinely differ in the
// middle (the fluid engine shares capacity with no queueing, stretch ≈ 3
// here; the packet engine queues frames, stretch ≈ 4.1), so the arms pin
// the three regimes that are engine-independent facts: a target below
// every stretch (nobody attains), a target above every stretch (everyone
// attains), and the token-paced incast at the default target, where pacing
// pins stretch near 1 on both engines and the full population attains.
func TestSLOReportAgreesAcrossEngines(t *testing.T) {
	const dst, fanIn, size = 5, 8, 256 << 10
	run := func(eng Engine, targetX float64, paced bool) Report {
		c, err := New(Config{
			Topology: Grid, Width: 4, Height: 4, Seed: 7,
			Engine: eng, SLOTargetX: targetX,
		})
		if err != nil {
			t.Fatal(err)
		}
		specs := incastSpecs(t, c, dst, fanIn, size)
		if paced {
			specs, err = TokenPaced(c, specs, 0)
			if err != nil {
				t.Fatal(err)
			}
		}
		flows, err := c.Inject(specs)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.RunUntilDone(60 * time.Second); err != nil {
			t.Fatal(err)
		}
		for _, f := range flows {
			if !f.Done() || f.Failed() {
				t.Fatalf("%s incast flow did not finish", eng)
			}
		}
		return c.Report()
	}
	arms := []struct {
		name         string
		targetX      float64 // 0 = default (4)
		paced        bool
		wantAttained int64
	}{
		// Stretch is ≥ 1 by physics (no flow beats its uncontended ideal),
		// so a sub-1 target is unattainable on any engine; 16× sits above
		// both engines' worst plain-incast stretch (4.12 packet, 2.98
		// fluid).
		{"plain-tight", 0.5, false, 0},
		{"plain-loose", 16, false, fanIn},
		{"token-paced-default", 0, true, fanIn},
	}
	for _, arm := range arms {
		t.Run(arm.name, func(t *testing.T) {
			fl := run(EngineFluid, arm.targetX, arm.paced).SLO
			pk := run(EnginePacket, arm.targetX, arm.paced).SLO
			if fl.Flows != int64(fanIn) || pk.Flows != int64(fanIn) {
				t.Fatalf("SLO populations fluid=%d packet=%d, want %d", fl.Flows, pk.Flows, fanIn)
			}
			if fl.TargetX != pk.TargetX {
				t.Errorf("SLO targets disagree: fluid=%v packet=%v", fl.TargetX, pk.TargetX)
			}
			if arm.targetX == 0 && fl.TargetX != 4 {
				t.Errorf("default TargetX = %v, want 4", fl.TargetX)
			}
			if fl.Attained != pk.Attained {
				t.Errorf("attained counts disagree: fluid=%d packet=%d", fl.Attained, pk.Attained)
			}
			if fl.Attained != arm.wantAttained {
				t.Errorf("attained = %d, want %d", fl.Attained, arm.wantAttained)
			}
		})
	}
}

// TestSLOReportDefaultsAndConfig pins the SLO knob: a custom SLOTargetX
// flows through to the report, and an un-run cluster reports a zero SLO
// section (so Report.String omits it).
func TestSLOReportDefaultsAndConfig(t *testing.T) {
	c, err := New(Config{Topology: Grid, Width: 4, Height: 4, SLOTargetX: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Report().SLO; got != (SLOReport{}) {
		t.Fatalf("SLO section non-zero before any flow completed: %+v", got)
	}
	if _, err := c.Inject(incastSpecs(t, c, 5, 4, 64<<10)); err != nil {
		t.Fatal(err)
	}
	if err := c.RunUntilDone(time.Second); err != nil {
		t.Fatal(err)
	}
	slo := c.Report().SLO
	if slo.TargetX != 1.5 {
		t.Errorf("TargetX = %v, want the configured 1.5", slo.TargetX)
	}
	if slo.Flows != 4 {
		t.Errorf("Flows = %d, want 4", slo.Flows)
	}
}

// TestSLOHopCountsMatchHopsFrom holds Report().SLO, whose hop counts come
// from one search per distinct source over a snapshot of the live links on
// the packet engine and from the session's route table on the fluid
// engine, to a reference that asks topo.HopsFrom for every flow. After a
// shuffle completes, one link goes dark (lengthening some shortest paths)
// and so does every link of one corner node (leaving its flows' pairs
// unreachable, so the population shrinks). The packet arm turns the lanes
// off. The fluid arm applies a LinkDown and a NodeDown: a fault is the one
// way a fluid cluster loses a link, and the table follows it.
func TestSLOHopCountsMatchHopsFrom(t *testing.T) {
	darken := func(t *testing.T, c *Cluster, f FaultSpec) {
		t.Helper()
		if c.Engine() == EngineFluid {
			f.At = c.Now()
			if err := c.ApplyFaults(NewFaultSchedule(f)); err != nil {
				t.Fatal(err)
			}
			if err := c.RunFor(time.Microsecond); err != nil {
				t.Fatal(err)
			}
			return
		}
		e, _ := c.graph.EdgeBetween(topo.NodeID(f.A), topo.NodeID(f.B))
		edges := []*topo.Edge{e}
		if f.Kind == NodeDown {
			edges = c.graph.Adjacent(topo.NodeID(f.Node))
		}
		for _, e := range edges {
			for _, lane := range e.Link.Lanes {
				if err := lane.SetState(phy.LaneOff); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	reference := func(c *Cluster) SLOReport {
		var rate float64
		for _, e := range c.graph.Edges() {
			rate = max(rate, e.Link.EffectiveRate())
		}
		var stretches []float64
		for _, f := range c.be.flows() {
			_, fct, ok := f.result()
			if !ok {
				continue
			}
			src, dst := f.Endpoints()
			h := c.graph.HopsFrom(topo.NodeID(src))[dst]
			if h < 0 {
				continue
			}
			ideal := workload.IdealFCT(f.Bytes(), rate, h, sloPerHopLatency)
			stretches = append(stretches, float64(fct)/float64(ideal))
		}
		s := telemetry.ComputeSLO(stretches, c.sloTargetX())
		return SLOReport{
			TargetX: s.TargetX, Flows: s.Flows, Attained: s.Attained, AttainPct: s.AttainPct,
			P50Stretch: s.P50Stretch, P99Stretch: s.P99Stretch, MaxStretch: s.MaxStretch,
		}
	}
	for _, eng := range []Engine{EnginePacket, EngineFluid} {
		t.Run(string(eng), func(t *testing.T) {
			c, err := New(Config{Topology: Grid, Width: 4, Height: 4, Seed: 3, Engine: eng})
			if err != nil {
				t.Fatal(err)
			}
			flows, err := c.Inject(ShuffleTraffic(c, 32<<10))
			if err != nil {
				t.Fatal(err)
			}
			if err := c.RunUntilDone(10 * time.Second); err != nil {
				t.Fatal(err)
			}
			before := c.graph.HopsFrom(0)[1]
			darken(t, c, FaultSpec{Kind: LinkDown, A: 0, B: 1})
			if after := c.graph.HopsFrom(0)[1]; after <= before {
				t.Fatalf("darkening 0–1 left its hop count at %d (was %d)", after, before)
			}
			darken(t, c, FaultSpec{Kind: NodeDown, Node: int(c.graph.NodeAt(3, 3))})
			got, want := c.Report().SLO, reference(c)
			if got != want {
				t.Fatalf("Report().SLO = %+v\nreference    %+v", got, want)
			}
			if want.Flows == 0 || want.Flows >= int64(len(flows)) {
				t.Fatalf("reference counts %d of %d flows; want the corner's flows excluded and the rest kept", want.Flows, len(flows))
			}
		})
	}
}

// TestHopCountsSkipFaultDownedLinks: a fault's LinkDown and NodeDown leave
// the lanes lit, yet hop counts, MeanHops and the SLO ideal must treat the
// downed links as gone, on both engines, as routing does.
func TestHopCountsSkipFaultDownedLinks(t *testing.T) {
	for _, tc := range []struct {
		engine  Engine
		stretch float64
	}{{EngineFluid, 1.000}, {EnginePacket, 1.121}} {
		t.Run(string(tc.engine), func(t *testing.T) {
			c, err := New(Config{
				Topology: Grid, Width: 4, Height: 4, Engine: tc.engine, Seed: 3,
				Faults: NewFaultSchedule(
					FaultSpec{At: 10 * time.Microsecond, Kind: LinkDown, A: 0, B: 1},
					FaultSpec{At: 10 * time.Microsecond, Kind: NodeDown, Node: 15},
				),
			})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c.Inject([]FlowSpec{{Src: 0, Dst: 1, Bytes: 64 << 10, At: 20 * time.Microsecond}}); err != nil {
				t.Fatal(err)
			}
			if err := c.RunUntilDone(time.Second); err != nil {
				t.Fatal(err)
			}
			hops := c.graph.HopsFrom(0)
			if hops[1] != 3 || hops[15] != -1 {
				t.Errorf("hops from 0: to 1 = %d, to 15 = %d; want 3 and -1", hops[1], hops[15])
			}
			if mh, err := c.MeanHops(); err == nil || !strings.Contains(err.Error(), "graph disconnected") {
				t.Errorf("MeanHops = %v, %v; want the graph disconnected error", mh, err)
			}
			if got := c.Report().SLO.P50Stretch; math.Abs(got-tc.stretch) > 5e-4 {
				t.Errorf("SLO stretch %.4f, want %.3f", got, tc.stretch)
			}
		})
	}
}

// TestIncastTokenPacingBoundsQueueing is the PL2 claim inside our fabric:
// on the same 16→1 incast under the same VLB routing, the receiver-driven
// token path must (a) strictly lower the worst per-hop queueing delay any
// link sees, and (b) attain the SLO for at least as many flows — with a
// strictly positive spread — versus open-loop injection. Direction of the
// spread: pacing wins (see README "Workloads & SLOs").
func TestIncastTokenPacingBoundsQueueing(t *testing.T) {
	const dst, fanIn, size = 12, 16, 128 << 10
	run := func(paced bool) (Report, time.Duration) {
		c, err := New(Config{Topology: Grid, Width: 5, Height: 5, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		c.SetValiantRouting(true)
		specs := incastSpecs(t, c, dst, fanIn, size)
		if paced {
			specs, err = TokenPaced(c, specs, 0)
			if err != nil {
				t.Fatal(err)
			}
		}
		if _, err := c.Inject(specs); err != nil {
			t.Fatal(err)
		}
		if err := c.RunUntilDone(10 * time.Second); err != nil {
			t.Fatal(err)
		}
		peak, err := c.PeakQueueDelay()
		if err != nil {
			t.Fatal(err)
		}
		return c.Report(), peak
	}
	plain, plainPeak := run(false)
	token, tokenPeak := run(true)

	if tokenPeak >= plainPeak {
		t.Errorf("token peak queue delay %v ≥ plain VLB %v; pacing must bound receiver queueing", tokenPeak, plainPeak)
	}
	if token.SLO.Attained <= plain.SLO.Attained {
		t.Errorf("token attained %d/%d vs plain %d/%d; want a strictly positive pacing spread",
			token.SLO.Attained, token.SLO.Flows, plain.SLO.Attained, plain.SLO.Flows)
	}
	if token.SLO.P99Stretch >= plain.SLO.P99Stretch {
		t.Errorf("token p99 stretch %.2f ≥ plain %.2f; pacing should flatten the tail",
			token.SLO.P99Stretch, plain.SLO.P99Stretch)
	}
}

// TestRunPhasesAcrossEngines holds the phase barrier on both engines: a
// two-phase schedule completes, every phase-1 flow starts no earlier than
// every phase-0 flow ends (packet) / than the phase-0 drain (fluid), and
// the handles come back phase-shaped.
func TestRunPhasesAcrossEngines(t *testing.T) {
	phases := [][]FlowSpec{
		{
			{Src: 0, Dst: 5, Bytes: 256 << 10, Label: "p0"},
			{Src: 10, Dst: 3, Bytes: 512 << 10, Label: "p0"},
		},
		{
			{Src: 5, Dst: 0, Bytes: 128 << 10, Label: "p1"},
			{Src: 3, Dst: 10, Bytes: 128 << 10, Label: "p1"},
		},
	}
	for _, eng := range []Engine{EnginePacket, EngineFluid} {
		t.Run(string(eng), func(t *testing.T) {
			c, err := New(Config{Topology: Grid, Width: 4, Height: 4, Seed: 3, Engine: eng})
			if err != nil {
				t.Fatal(err)
			}
			out, err := c.RunPhases(phases, 10*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			if len(out) != 2 || len(out[0]) != 2 || len(out[1]) != 2 {
				t.Fatalf("handles are not phase-shaped: %d phases", len(out))
			}
			for _, f := range out[0] {
				fct, err := f.CompletionTime()
				if err != nil {
					t.Fatal(err)
				}
				if fct <= 0 {
					t.Fatal("phase-0 flow has non-positive FCT")
				}
			}
			jct0, err := JobCompletionTime(out[0])
			if err != nil {
				t.Fatal(err)
			}
			jctAll, err := JobCompletionTime(append(append([]*Flow(nil), out[0]...), out[1]...))
			if err != nil {
				t.Fatal(err)
			}
			if jctAll <= jct0 {
				t.Errorf("whole-job JCT %v not beyond phase-0 JCT %v; phases overlapped", jctAll, jct0)
			}
			// The report sees all four flows.
			if got := c.Report().SLO.Flows; got != 4 {
				t.Errorf("SLO population = %d, want 4", got)
			}
		})
	}
}

// barrierPhases is a three-phase schedule on a 4×4 grid whose last phase
// carries a non-zero phase-relative At.
func barrierPhases() [][]FlowSpec {
	return [][]FlowSpec{
		{
			{Src: 0, Dst: 5, Bytes: 200e3, Label: "p0"},
			{Src: 10, Dst: 3, Bytes: 400e3, Label: "p0"},
		},
		{
			{Src: 5, Dst: 0, Bytes: 100e3, Label: "p1"},
			{Src: 3, Dst: 10, Bytes: 100e3, Label: "p1"},
		},
		{
			{Src: 15, Dst: 0, Bytes: 50e3, At: 3 * time.Microsecond, Label: "p2"},
		},
	}
}

// drainInstant returns the instant the last flow of a finished phase
// drained: the completion event RunUntilDone leaves the clock at. A fluid
// FCT also carries a delivery tail of one switch pipeline per hop of its
// shortest path on the healthy fabric, which the event instant excludes
// (the packet engine simulates that tail frame by frame).
func drainInstant(t *testing.T, c *Cluster, phase []*Flow) sim.Time {
	t.Helper()
	var last sim.Time
	for _, f := range phase {
		_, end, err := f.window()
		if err != nil {
			t.Fatal(err)
		}
		if f.fb != nil {
			src, dst := f.Endpoints()
			hops := c.graph.HopsFrom(topo.NodeID(src))[dst]
			end = end.Add(-sim.Duration(int64(switching.DefaultPipelineLatency) * int64(hops)))
		}
		last = max(last, end)
	}
	return last
}

// TestRunPhasesBarrierInstant holds the barrier semantics on both engines:
// every flow of phase p+1 starts exactly at the instant the last flow of
// phase p drained, plus its phase-relative At, and the clock ends at the
// last phase's drain.
func TestRunPhasesBarrierInstant(t *testing.T) {
	phases := barrierPhases()
	for _, eng := range []Engine{EnginePacket, EngineFluid} {
		t.Run(string(eng), func(t *testing.T) {
			c, err := New(Config{Topology: Grid, Width: 4, Height: 4, Seed: 3, Engine: eng})
			if err != nil {
				t.Fatal(err)
			}
			out, err := c.RunPhases(phases, time.Second)
			if err != nil {
				t.Fatal(err)
			}
			for p := 1; p < len(out); p++ {
				drain := drainInstant(t, c, out[p-1])
				for i, f := range out[p] {
					start, _, err := f.window()
					if err != nil {
						t.Fatal(err)
					}
					if want := drain.Add(simDur(phases[p][i].At)); start != want {
						t.Errorf("phase %d flow %d started at %v, want the phase-%d drain %v + At = %v",
							p, i, start, p-1, drain, want)
					}
				}
			}
			if got, want := c.be.Now(), drainInstant(t, c, out[len(out)-1]); got != want {
				t.Errorf("clock ends at %v, want the last drain %v", got, want)
			}
		})
	}
}

// TestRunPhasesRejectsBadShapes: both engines refuse zero phases and an
// empty phase.
func TestRunPhasesRejectsBadShapes(t *testing.T) {
	for _, eng := range []Engine{EnginePacket, EngineFluid} {
		t.Run(string(eng), func(t *testing.T) {
			c, err := New(Config{Topology: Line, Width: 3, Engine: eng})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c.RunPhases(nil, time.Second); err == nil {
				t.Error("want error for zero phases")
			}
			if _, err := c.RunPhases([][]FlowSpec{
				{{Src: 0, Dst: 1, Bytes: 1e3}},
				{},
			}, time.Second); err == nil {
				t.Error("want error for an empty phase")
			}
		})
	}
}

// TestRunPhasesTracesPhaseOpen: a traced cluster records one phase-open
// event per barrier, stamped at the drain instant, on either engine.
func TestRunPhasesTracesPhaseOpen(t *testing.T) {
	phases := barrierPhases()
	for _, eng := range []Engine{EnginePacket, EngineFluid} {
		t.Run(string(eng), func(t *testing.T) {
			c, err := New(Config{Topology: Grid, Width: 4, Height: 4, Engine: eng, Trace: true})
			if err != nil {
				t.Fatal(err)
			}
			out, err := c.RunPhases(phases, time.Second)
			if err != nil {
				t.Fatal(err)
			}
			var opens []trace.Event
			for _, ev := range c.trace.Events() {
				if ev.Kind == trace.PhaseOpen {
					opens = append(opens, ev)
				}
			}
			if len(opens) != len(phases)-1 {
				t.Fatalf("recorded %d phase-open events, want %d", len(opens), len(phases)-1)
			}
			for i, ev := range opens {
				if ev.Value != int64(i+1) || ev.At != drainInstant(t, c, out[i]) {
					t.Errorf("phase-open %d = (phase %d at %v), want (phase %d at %v)",
						i, ev.Value, ev.At, i+1, drainInstant(t, c, out[i]))
				}
			}
		})
	}
}

// TestCollectiveTrafficGenerators pins the public wrappers' validation and
// shapes.
func TestCollectiveTrafficGenerators(t *testing.T) {
	c, err := New(Config{Topology: Grid, Width: 4, Height: 4})
	if err != nil {
		t.Fatal(err)
	}
	ring, err := RingAllReduceTraffic(c, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(ring), 2*(16-1); got != want {
		t.Errorf("ring phases = %d, want %d", got, want)
	}
	hd, err := HalvingDoublingTraffic(c, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(hd), 8; got != want { // 2·log2(16)
		t.Errorf("halving-doubling phases = %d, want %d", got, want)
	}
	a2a, err := AllToAllTraffic(c, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if len(a2a) != 1 || len(a2a[0]) != 16*15 {
		t.Errorf("all-to-all shape = %d phases × %d flows, want 1 × 240", len(a2a), len(a2a[0]))
	}

	odd, err := New(Config{Topology: Grid, Width: 3, Height: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := HalvingDoublingTraffic(odd, 1<<20); err == nil {
		t.Error("want error for halving-doubling on 9 nodes")
	}
	if _, err := RingAllReduceTraffic(c, 0); err == nil {
		t.Error("want error for zero bytes")
	}
	if _, err := AllToAllTraffic(c, -1); err == nil {
		t.Error("want error for negative pair size")
	}
}
