package rackfab

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"
)

// differentialSpecs is the 8-flow geometric-size mix the internal
// fluid-vs-packet differential gate uses, expressed through the public API.
func differentialSpecs() []FlowSpec {
	return []FlowSpec{
		{Src: 0, Dst: 5, Bytes: 50e3, At: 0, Label: "s50k"},
		{Src: 3, Dst: 6, Bytes: 100e3, At: 20 * time.Microsecond, Label: "s100k"},
		{Src: 12, Dst: 9, Bytes: 200e3, At: 40 * time.Microsecond, Label: "s200k"},
		{Src: 15, Dst: 10, Bytes: 400e3, At: 10 * time.Microsecond, Label: "s400k"},
		{Src: 1, Dst: 13, Bytes: 800e3, At: 30 * time.Microsecond, Label: "s800k"},
		{Src: 7, Dst: 4, Bytes: 1600e3, At: 5 * time.Microsecond, Label: "s1600k"},
		{Src: 2, Dst: 14, Bytes: 3200e3, At: 15 * time.Microsecond, Label: "s3200k"},
		{Src: 8, Dst: 11, Bytes: 6400e3, At: 25 * time.Microsecond, Label: "s6400k"},
	}
}

// flapSchedule is the central-link flap both engines replay: down
// mid-traffic, restored later.
func flapSchedule() *FaultSchedule {
	return NewFaultSchedule(
		FaultSpec{At: 30 * time.Microsecond, Kind: LinkDown, A: 9, B: 10},
		FaultSpec{At: 250 * time.Microsecond, Kind: LinkUp, A: 9, B: 10},
	)
}

func TestFluidQuickstart(t *testing.T) {
	c, err := New(Config{Topology: Grid, Width: 4, Height: 4, Seed: 1, Engine: EngineFluid})
	if err != nil {
		t.Fatal(err)
	}
	if c.Engine() != EngineFluid {
		t.Fatalf("engine = %q", c.Engine())
	}
	flows, err := c.Inject(UniformTraffic(c, 50, 16<<10))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RunUntilDone(time.Second); err != nil {
		t.Fatal(err)
	}
	for _, f := range flows {
		if !f.Done() || f.Failed() {
			t.Fatal("flow unfinished")
		}
		if d, err := f.CompletionTime(); err != nil || d <= 0 {
			t.Fatalf("completion %v err %v", d, err)
		}
		if f.Retransmits() != 0 {
			t.Fatal("fluid flow reported retransmits")
		}
	}
	rep := c.Report()
	if rep.FlowsCompleted != 50 {
		t.Fatalf("report flows: %d", rep.FlowsCompleted)
	}
	// RunUntilDone stops the clock at completion on both engines; it must
	// not idle forward to the limit.
	if now := c.Now(); now <= 0 || now >= time.Second {
		t.Fatalf("clock after RunUntilDone = %v", now)
	}
	if rep.FCT.Count != 50 || rep.FCT.P99Us <= 0 || rep.MeanHops <= 0 {
		t.Fatalf("report FCT summary: %+v hops %v", rep.FCT, rep.MeanHops)
	}
	if rep.Solver == (SolverReport{}) {
		t.Fatal("fluid run reported no solver work")
	}
	if jct, err := JobCompletionTime(flows); err != nil || jct <= 0 {
		t.Fatalf("JCT %v err %v", jct, err)
	}
}

// TestFlowsCompletedConsistentAcrossEngines: the same completed workload
// reports the same FlowsCompleted on either engine.
func TestFlowsCompletedConsistentAcrossEngines(t *testing.T) {
	counts := map[Engine]int64{}
	for _, eng := range []Engine{EnginePacket, EngineFluid} {
		c, err := New(Config{Topology: Grid, Width: 4, Height: 4, Seed: 3, Engine: eng})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Inject(differentialSpecs()); err != nil {
			t.Fatal(err)
		}
		if err := c.RunUntilDone(60 * time.Second); err != nil {
			t.Fatal(err)
		}
		counts[eng] = c.Report().FlowsCompleted
	}
	if counts[EnginePacket] != counts[EngineFluid] || counts[EnginePacket] != int64(len(differentialSpecs())) {
		t.Fatalf("FlowsCompleted diverged: %v", counts)
	}
}

// TestReportFlowSectionsAreHandleSummaries pins Report's per-flow sections
// to one definition on both engines: FlowsCompleted and FCT's Count, P50Us,
// P99Us and MaxUs are the exact nearest-rank summary of the completion
// times of the handles Inject returned, whatever the engine's own
// instruments hold. Flows a Service injected have no handle and count in
// neither.
func TestReportFlowSectionsAreHandleSummaries(t *testing.T) {
	for _, eng := range []Engine{EnginePacket, EngineFluid} {
		t.Run(string(eng), func(t *testing.T) {
			c, err := New(Config{Topology: Grid, Width: 4, Height: 4, Seed: 3, Engine: eng})
			if err != nil {
				t.Fatal(err)
			}
			flows, err := c.Inject(UniformTraffic(c, 50, 64<<10))
			if err != nil {
				t.Fatal(err)
			}
			if err := c.RunUntilDone(time.Second); err != nil {
				t.Fatal(err)
			}
			fcts := make([]int64, len(flows))
			for i, f := range flows {
				_, d, ok := f.result()
				if !ok {
					t.Fatalf("flow %d unfinished", i)
				}
				fcts[i] = int64(d)
			}
			sort.Slice(fcts, func(i, j int) bool { return fcts[i] < fcts[j] })
			n := len(fcts)
			// rank returns the ceil(n·pct/100)-th smallest FCT in µs.
			rank := func(pct int) float64 { return float64(fcts[(n*pct+99)/100-1]) / 1e6 }
			want := Summary{Count: int64(n), P50Us: rank(50), P99Us: rank(99), MaxUs: rank(100)}
			rep := c.Report()
			got := rep.FCT
			got.MeanUs = 0
			if rep.FlowsCompleted != int64(n) || got != want {
				t.Fatalf("Report: %d flows, FCT %+v\nhandles: %d flows, FCT %+v", rep.FlowsCompleted, got, n, want)
			}

			served, err := New(Config{Topology: Grid, Width: 4, Height: 4, Seed: 3, Engine: eng})
			if err != nil {
				t.Fatal(err)
			}
			svc, err := served.Serve(ServeConfig{Arrivals: ArrivalSpec{Rate: 1e5, Sizes: "fixed:1000"}})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 5; i++ {
				if err := svc.Tick(); err != nil {
					t.Fatal(err)
				}
			}
			if svc.Stats().Completed == 0 {
				t.Fatal("the service completed no flow")
			}
			if r := served.Report(); r.FlowsCompleted != 0 || r.FCT != (Summary{}) {
				t.Fatalf("served cluster reports %d flows, FCT %+v; want none", r.FlowsCompleted, r.FCT)
			}
		})
	}
}

// TestFluidDeterminismWithFaults is the byte-determinism acceptance gate: a
// public-API program on EngineFluid with a FaultSchedule must fingerprint
// identically across repeated sequential runs AND across concurrent runs
// (the worker-pool regime experiment sweeps use for -parallel).
func TestFluidDeterminismWithFaults(t *testing.T) {
	run := func() (string, error) {
		c, err := New(Config{
			Topology: Grid, Width: 8, Height: 8, Seed: 42,
			Engine: EngineFluid,
			Faults: flapSchedule().Merge(NewFaultSchedule(
				FaultSpec{At: 60 * time.Microsecond, Kind: NodeDown, Node: 27},
				FaultSpec{At: 400 * time.Microsecond, Kind: NodeUp, Node: 27},
				FaultSpec{At: 20 * time.Microsecond, Kind: LinkDegrade, A: 1, B: 2, Frac: 0.5},
			)),
		})
		if err != nil {
			return "", err
		}
		flows, err := c.Inject(PermutationTraffic(c, 1e6))
		if err != nil {
			return "", err
		}
		if err := c.RunUntilDone(time.Minute); err != nil {
			return "", err
		}
		var b strings.Builder
		b.WriteString(c.Report().String())
		for _, f := range flows {
			d, err := f.CompletionTime()
			if err != nil {
				return "", err
			}
			fmt.Fprintf(&b, "\n%s %d", f.Label(), d.Nanoseconds())
		}
		return b.String(), nil
	}

	want, err := run()
	if err != nil {
		t.Fatal(err)
	}
	if got, err := run(); err != nil || got != want {
		t.Fatalf("sequential re-run diverged (err %v)", err)
	}
	const workers = 4
	results := make([]string, workers)
	errs := make([]error, workers)
	done := make(chan int, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			results[w], errs[w] = run()
			done <- w
		}(w)
	}
	for i := 0; i < workers; i++ {
		<-done
	}
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			t.Fatal(errs[w])
		}
		if results[w] != want {
			t.Fatalf("concurrent run %d diverged from sequential", w)
		}
	}
	if !strings.Contains(want, "faults:") || !strings.Contains(want, "solver:") {
		t.Fatalf("faulted fluid report missing churn sections:\n%s", want)
	}
}

// TestClusterDifferentialRankOrderUnderFlap is the public-façade extension
// of the internal fluid-vs-packet differential gate: the same []FlowSpec
// and the same FaultSchedule run through both engines via the public API
// only, and the flow completion rank order must agree through the flap. The
// packet side replays the schedule through the fabric's own incremental
// repair path — no internal imports, no oracle rebuild in user code.
func TestClusterDifferentialRankOrderUnderFlap(t *testing.T) {
	rank := func(eng Engine) ([]string, Report) {
		c, err := New(Config{
			Topology: Grid, Width: 4, Height: 4, Seed: 7,
			Engine: eng,
			Faults: flapSchedule(),
		})
		if err != nil {
			t.Fatal(err)
		}
		flows, err := c.Inject(differentialSpecs())
		if err != nil {
			t.Fatal(err)
		}
		if err := c.RunUntilDone(60 * time.Second); err != nil {
			t.Fatal(err)
		}
		type fin struct {
			label string
			end   time.Duration
		}
		fins := make([]fin, len(flows))
		for i, f := range flows {
			d, err := f.CompletionTime()
			if err != nil {
				t.Fatalf("%s flow %s: %v", eng, f.Label(), err)
			}
			fins[i] = fin{label: f.Label(), end: differentialSpecs()[i].At + d}
		}
		sort.Slice(fins, func(i, j int) bool { return fins[i].end < fins[j].end })
		order := make([]string, len(fins))
		for i, f := range fins {
			order[i] = f.label
		}
		return order, c.Report()
	}

	fluidOrder, fluidRep := rank(EngineFluid)
	packetOrder, packetRep := rank(EnginePacket)
	for i := range fluidOrder {
		if fluidOrder[i] != packetOrder[i] {
			t.Fatalf("completion rank order diverged at position %d through the flap:\nfluid:  %v\npacket: %v",
				i, fluidOrder, packetOrder)
		}
	}
	// Both engines must have actually replayed the schedule.
	if fluidRep.Faults.CapacityEvents != 2 || packetRep.Faults.CapacityEvents != 2 {
		t.Fatalf("capacity events: fluid %d packet %d, want 2 each",
			fluidRep.Faults.CapacityEvents, packetRep.Faults.CapacityEvents)
	}
	if fluidRep.Faults.Reroutes == 0 {
		t.Fatal("the flap touched no fluid flow — the scenario is inert")
	}
	if packetRep.Faults.RouteRepairs == 0 {
		t.Fatal("the packet replay repaired no routing columns")
	}
}

// TestFaultReportFieldsAgreeAcrossEngines: the same node-loss flap on the
// same workload must populate the same Report.Faults fields on both
// engines. Node 5 goes dark mid-traffic: the flow terminating at 5 can
// only starve (its destination is unreachable until the heal), transit
// flows routed through 5 must reroute, and on the heal both engines must
// account the same single positive-duration starvation episode.
func TestFaultReportFieldsAgreeAcrossEngines(t *testing.T) {
	nodeFlap := NewFaultSchedule(
		FaultSpec{At: 30 * time.Microsecond, Kind: NodeDown, Node: 5},
		FaultSpec{At: 250 * time.Microsecond, Kind: NodeUp, Node: 5},
	)
	specs := []FlowSpec{
		{Src: 0, Dst: 5, Bytes: 2e6, At: 0, Label: "starver"},
		{Src: 1, Dst: 9, Bytes: 4e6, At: 0, Label: "transit-a"},
		{Src: 4, Dst: 6, Bytes: 4e6, At: 0, Label: "transit-b"},
		{Src: 12, Dst: 15, Bytes: 1e6, At: 0, Label: "clear"},
	}
	run := func(eng Engine) Report {
		c, err := New(Config{
			Topology: Grid, Width: 4, Height: 4, Seed: 7,
			Engine: eng,
			Faults: nodeFlap,
		})
		if err != nil {
			t.Fatal(err)
		}
		flows, err := c.Inject(specs)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.RunUntilDone(60 * time.Second); err != nil {
			t.Fatal(err)
		}
		for i, f := range flows {
			if !f.Done() || f.Failed() {
				t.Fatalf("%s flow %s did not survive the node flap", eng, specs[i].Label)
			}
		}
		return c.Report()
	}
	reports := map[Engine]Report{EngineFluid: run(EngineFluid), EnginePacket: run(EnginePacket)}
	for eng, rep := range reports {
		fr := rep.Faults
		// One node loss lowered to its 4 incident links, down then up.
		if fr.CapacityEvents != 8 {
			t.Errorf("%s: capacity events = %d, want 8", eng, fr.CapacityEvents)
		}
		if fr.RouteRepairs == 0 {
			t.Errorf("%s: node loss repaired no routing columns", eng)
		}
		if fr.Reroutes == 0 {
			t.Errorf("%s: transit flows through node 5 recorded no reroutes", eng)
		}
		if fr.StarvedEpisodes != 1 {
			t.Errorf("%s: starvation episodes = %d, want 1 (the flow into node 5)",
				eng, fr.StarvedEpisodes)
		}
		if fr.MeanRecovery <= 0 {
			t.Errorf("%s: mean recovery = %v, want > 0", eng, fr.MeanRecovery)
		}
	}
	// The episode spans exactly the outage on either clock: opened when the
	// node went dark, closed by the heal — 220 µs on both engines.
	want := 220 * time.Microsecond
	for eng, rep := range reports {
		if rep.Faults.MeanRecovery != want {
			t.Errorf("%s: mean recovery = %v, want %v", eng, rep.Faults.MeanRecovery, want)
		}
	}
}

// TestPacketFaultReplayThroughCRC: with the Closed Ring Control enabled,
// a replayed schedule lands on the decision log (the fault is part of the
// CRC's audit trail) and the run heals through re-pricing epochs.
func TestPacketFaultReplayThroughCRC(t *testing.T) {
	c, err := New(Config{
		Topology: Grid, Width: 4, Height: 4, Seed: 7,
		Control: ControlConfig{Enabled: true, Epoch: 50 * time.Microsecond, DisableReconfig: true, DisableBypass: true},
		Faults:  flapSchedule(),
	})
	if err != nil {
		t.Fatal(err)
	}
	flows, err := c.Inject(differentialSpecs())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RunUntilDone(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	for _, f := range flows {
		if !f.Done() || f.Failed() {
			t.Fatal("flow did not survive the flap")
		}
	}
	rep := c.Report()
	if rep.Faults.CapacityEvents != 2 {
		t.Fatalf("capacity events = %d, want 2", rep.Faults.CapacityEvents)
	}
	faultDecisions := 0
	for _, line := range c.Decisions() {
		if strings.Contains(line, "fault:") {
			faultDecisions++
		}
	}
	if faultDecisions == 0 {
		t.Fatal("replayed faults left no trace on the CRC decision log")
	}
}

// TestReportStringSections: the fault/solver sections print only when
// non-zero.
func TestReportStringSections(t *testing.T) {
	plain := (Report{}).String()
	if strings.Contains(plain, "faults:") || strings.Contains(plain, "solver:") {
		t.Fatalf("zero report grew churn sections:\n%s", plain)
	}
	r := Report{Faults: FaultReport{CapacityEvents: 2, Reroutes: 1}, Solver: SolverReport{ColdFills: 3}}
	s := r.String()
	if !strings.Contains(s, "faults: 2 capacity events") || !strings.Contains(s, "solver: warm fills") {
		t.Fatalf("non-zero sections missing:\n%s", s)
	}
}

// TestFluidSurfaceGuards: packet-hardware surfaces reject the fluid engine
// with ErrPacketOnly; injection and fault application after the run starts
// are accepted and take effect.
func TestFluidSurfaceGuards(t *testing.T) {
	if _, err := New(Config{Topology: Grid, Width: 4, Height: 4, Engine: EngineFluid, Control: ControlOn()}); err == nil {
		t.Fatal("CRC accepted on the fluid engine")
	}
	c, err := New(Config{Topology: Grid, Width: 4, Height: 4, Seed: 2, Engine: EngineFluid})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SetLinkBER(0, 1, 1e-9); !errors.Is(err, ErrPacketOnly) {
		t.Fatalf("SetLinkBER: %v", err)
	}
	if err := c.DisableLanes(0, 1, 1); !errors.Is(err, ErrPacketOnly) {
		t.Fatalf("DisableLanes: %v", err)
	}
	if _, err := c.LinkFECName(0, 1); !errors.Is(err, ErrPacketOnly) {
		t.Fatalf("LinkFECName: %v", err)
	}
	if err := c.ApplyGridToTorus(1); !errors.Is(err, ErrPacketOnly) {
		t.Fatalf("ApplyGridToTorus: %v", err)
	}
	if c.Decisions() != nil || c.PowerW() != 0 {
		t.Fatal("fluid cluster leaked packet-only state")
	}

	if _, err := c.Inject(differentialSpecs()); err != nil {
		t.Fatal(err)
	}
	if err := c.RunFor(time.Microsecond); err != nil {
		t.Fatal(err)
	}
	// Mid-run injection is a supported service-mode operation: the second
	// batch gets fresh batch-major IDs and completes like any other.
	late, err := c.Inject(differentialSpecs())
	if err != nil {
		t.Fatalf("mid-run Inject: %v", err)
	}
	if err := c.ApplyFaults(flapSchedule()); err != nil {
		t.Fatalf("mid-run ApplyFaults: %v", err)
	}
	if err := c.RunUntilDone(time.Minute); err != nil {
		t.Fatal(err)
	}
	for i, f := range late {
		if !f.Done() {
			t.Fatalf("mid-run injected flow %d unfinished", i)
		}
	}
	if got := c.Report().Faults.CapacityEvents; got != 2 {
		t.Fatalf("mid-run flap applied %d capacity events, want 2", got)
	}
}

// TestApplyFaultsMidRunMatchesConstruction: on both engines, a schedule
// applied mid-run before its first instant gives the same run as the same
// schedule applied at construction: every handle's completion time and
// Report's fault section agree.
func TestApplyFaultsMidRunMatchesConstruction(t *testing.T) {
	for _, eng := range []Engine{EnginePacket, EngineFluid} {
		run := func(after time.Duration) ([]time.Duration, FaultReport) {
			t.Helper()
			cfg := Config{Topology: Grid, Width: 4, Height: 4, Seed: 4, Engine: eng}
			if after == 0 {
				cfg.Faults = flapSchedule()
			}
			c, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			flows, err := c.Inject(differentialSpecs())
			if err != nil {
				t.Fatal(err)
			}
			if after > 0 {
				if err := c.RunFor(after); err != nil {
					t.Fatal(err)
				}
				if err := c.ApplyFaults(flapSchedule()); err != nil {
					t.Fatalf("%v: ApplyFaults after RunFor(%v): %v", eng, after, err)
				}
			}
			if err := c.RunUntilDone(time.Second); err != nil {
				t.Fatal(err)
			}
			fcts := make([]time.Duration, len(flows))
			for i, f := range flows {
				if fcts[i], err = f.CompletionTime(); err != nil {
					t.Fatal(err)
				}
			}
			return fcts, c.Report().Faults
		}
		wantFCT, wantFaults := run(0)
		if wantFaults.CapacityEvents != 2 {
			t.Fatalf("%v: the flap applied %d capacity events, want 2", eng, wantFaults.CapacityEvents)
		}
		for _, after := range []time.Duration{20 * time.Microsecond, 29 * time.Microsecond} {
			gotFCT, gotFaults := run(after)
			if gotFaults != wantFaults {
				t.Errorf("%v: applied after %v: faults %+v, want %+v", eng, after, gotFaults, wantFaults)
			}
			for i := range gotFCT {
				if gotFCT[i] != wantFCT[i] {
					t.Errorf("%v: applied after %v: flow %d took %v, want %v", eng, after, i, gotFCT[i], wantFCT[i])
				}
			}
		}
	}
}

// TestIdleFaultApplies: a fault whose instant passes while the cluster
// holds no flow applies at that instant on both engines, so the fault
// report and the hop counts agree after an idle stretch.
func TestIdleFaultApplies(t *testing.T) {
	for _, eng := range []Engine{EnginePacket, EngineFluid} {
		t.Run(string(eng), func(t *testing.T) {
			c, err := New(Config{
				Topology: Grid, Width: 4, Height: 4, Engine: eng,
				Faults: NewFaultSchedule(FaultSpec{At: 10 * time.Microsecond, Kind: LinkDown, A: 0, B: 1}),
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := c.RunFor(50 * time.Microsecond); err != nil {
				t.Fatal(err)
			}
			if got := c.Report().Faults.CapacityEvents; got != 1 {
				t.Errorf("applied %d capacity events, want 1", got)
			}
			if e, _ := c.graph.EdgeBetween(0, 1); e.Enabled() {
				t.Error("link 0-1 still enabled after its LinkDown")
			}
			if hops := c.graph.HopsFrom(0); hops[1] != 3 {
				t.Errorf("hops from 0 to 1 = %d, want 3 around the downed link", hops[1])
			}
		})
	}
}

// TestFluidRunForInterleavesInspection: RunFor advances the fluid clock in
// steps and the report stays consistent mid-run.
func TestFluidRunForInterleavesInspection(t *testing.T) {
	c, err := New(Config{Topology: Grid, Width: 4, Height: 4, Seed: 5, Engine: EngineFluid})
	if err != nil {
		t.Fatal(err)
	}
	flows, err := c.Inject(differentialSpecs())
	if err != nil {
		t.Fatal(err)
	}
	var last int64 = -1
	for i := 0; i < 64 && c.Report().FlowsCompleted < int64(len(flows)); i++ {
		if err := c.RunFor(40 * time.Microsecond); err != nil {
			t.Fatal(err)
		}
		n := c.Report().FlowsCompleted
		if n < last {
			t.Fatalf("completed count went backwards: %d → %d", last, n)
		}
		last = n
	}
	if c.Report().FlowsCompleted != int64(len(flows)) {
		t.Fatalf("stepped run finished %d of %d flows", c.Report().FlowsCompleted, len(flows))
	}
	if c.Now() <= 0 {
		t.Fatal("clock did not advance")
	}
}

// TestPoissonFlapsPublic: the generator is a pure function of its inputs
// and produces a schedule both engines accept.
func TestPoissonFlapsPublic(t *testing.T) {
	mk := func() (*Cluster, *FaultSchedule) {
		c, err := New(Config{Topology: Grid, Width: 8, Height: 8, Seed: 9, Engine: EngineFluid})
		if err != nil {
			t.Fatal(err)
		}
		return c, PoissonFlaps(c, FlapConfig{
			Flaps: 6, Start: 10 * time.Microsecond,
			MeanGap: 50 * time.Microsecond, MeanOutage: 100 * time.Microsecond,
		})
	}
	c1, s1 := mk()
	_, s2 := mk()
	if s1.String() != s2.String() {
		t.Fatalf("same inputs, different schedules:\n%s\nvs\n%s", s1, s2)
	}
	if s1.Len() != 12 {
		t.Fatalf("6 flaps produced %d events, want 12", s1.Len())
	}
	if err := c1.ApplyFaults(s1); err != nil {
		t.Fatal(err)
	}
	pc, err := New(Config{Topology: Grid, Width: 8, Height: 8, Seed: 9, Faults: s1})
	if err != nil {
		t.Fatal(err)
	}
	_ = pc
}

// TestFaultScheduleValidation: bad targets and fractions surface as
// construction-time errors on either path.
func TestFaultScheduleValidation(t *testing.T) {
	if _, err := New(Config{
		Topology: Grid, Width: 4, Height: 4,
		Faults: NewFaultSchedule(FaultSpec{Kind: LinkDown, A: 0, B: 5}),
	}); err == nil {
		t.Fatal("non-adjacent link fault accepted")
	}
	c, err := New(Config{Topology: Grid, Width: 4, Height: 4, Engine: EngineFluid})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.ApplyFaults(NewFaultSchedule(FaultSpec{Kind: LinkDegrade, A: 0, B: 1, Frac: 1.5})); err == nil {
		t.Fatal("degrade fraction outside (0,1) accepted")
	}
	if err := c.ApplyFaults(NewFaultSchedule(FaultSpec{Kind: NodeDown, Node: 99})); err == nil {
		t.Fatal("out-of-range node accepted")
	}
}

// TestClockNeverRunsBackwards: a run limit behind the clock runs nothing
// and leaves Now where it was, on both engines: RunUntilDone with a limit
// already passed, and RunFor with a negative duration.
func TestClockNeverRunsBackwards(t *testing.T) {
	for _, eng := range []Engine{EnginePacket, EngineFluid} {
		c, err := New(Config{Topology: Grid, Width: 4, Height: 4, Seed: 3, Engine: eng})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Inject([]FlowSpec{{Src: 0, Dst: 15, Bytes: 100_000_000}}); err != nil {
			t.Fatal(err)
		}
		if err := c.RunFor(100 * time.Microsecond); err != nil {
			t.Fatalf("%v: RunFor: %v", eng, err)
		}
		err = c.RunUntilDone(50 * time.Microsecond)
		if err == nil {
			t.Fatalf("%v: RunUntilDone(50us) finished a 100 MB flow", eng)
		}
		if got := c.Now(); got != 100*time.Microsecond {
			t.Fatalf("%v: Now after RunUntilDone(50us) = %v, want 100us", eng, got)
		}
		if eng == EnginePacket && !strings.Contains(err.Error(), "at 100us") {
			t.Fatalf("%v: error %q does not report the clock at 100us", eng, err)
		}
		if err := c.RunFor(-40 * time.Microsecond); err != nil {
			t.Fatalf("%v: RunFor(-40us): %v", eng, err)
		}
		if got := c.Now(); got != 100*time.Microsecond {
			t.Fatalf("%v: Now after RunFor(-40us) = %v, want 100us", eng, got)
		}
	}
}
