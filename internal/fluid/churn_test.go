package fluid

import (
	"slices"
	"strings"
	"testing"

	"rackfab/internal/faults"
	"rackfab/internal/route"
	"rackfab/internal/sim"
	"rackfab/internal/topo"
	"rackfab/internal/workload"
)

// edgeBetween resolves the stable index of the construction edge a–b.
func edgeBetween(t *testing.T, g *topo.Graph, a, b topo.NodeID) int {
	t.Helper()
	e, ok := g.EdgeBetween(a, b)
	if !ok {
		t.Fatalf("no edge %d-%d", a, b)
	}
	return e.Index()
}

// TestLinkDownReroutesFlow: a flow on a 3×3 grid loses a link on its path
// mid-flight while an alternative exists, so it must reroute (not starve)
// and still complete; warm and cold runs agree to the byte under the fault.
func TestLinkDownReroutesFlow(t *testing.T) {
	g := topo.NewGrid(3, 3, topo.Options{})
	specs := []workload.FlowSpec{{Src: 0, Dst: 2, Bytes: 10e6}}
	base, err := Run(Config{Graph: g}, specs)
	if err != nil {
		t.Fatal(err)
	}
	// Fail the first hop of the only active path at 10% of the baseline
	// FCT; never restore. The grid offers detours, so the flow reroutes.
	li := edgeBetween(t, g, 0, 1)
	at := sim.Time(base.Flows[0].FCT / 10)
	sched := faults.New(faults.Event{At: at, Target: li, Kind: faults.LinkDown})
	churn, err := Run(Config{Graph: g, Faults: sched}, specs)
	if err != nil {
		t.Fatal(err)
	}
	if churn.Faults.Reroutes == 0 {
		t.Fatalf("flow not rerouted: %+v", churn.Faults)
	}
	if churn.Faults.StarvedEpisodes != 0 {
		t.Fatalf("flow starved despite a live detour: %+v", churn.Faults)
	}
	if churn.Flows[0].FCT <= base.Flows[0].FCT {
		t.Fatalf("detoured FCT %v not longer than baseline %v", churn.Flows[0].FCT, base.Flows[0].FCT)
	}
	if churn.Flows[0].Hops <= base.Flows[0].Hops {
		t.Fatalf("detour hops %d not longer than baseline %d", churn.Flows[0].Hops, base.Flows[0].Hops)
	}
	cold, err := Run(Config{Graph: g, Faults: sched, coldStart: true}, specs)
	if err != nil {
		t.Fatal(err)
	}
	if fingerprint(cold) != fingerprint(churn) {
		t.Fatalf("warm and cold diverged under a fault:\n--- warm ---\n%s\n--- cold ---\n%s",
			fingerprint(churn), fingerprint(cold))
	}
}

// TestDegradeAndRerouteInOneInstant: on a 2×2 grid, flow g (0→a) and flow
// f (0→3) share f's first link X at half its capacity each. One fault
// instant degrades X to half and takes down f's second link Y, so f moves
// to the other side of the square. In that reroute's refill X carries only
// g, at a share equal to both flows' old level, while f's new links carry
// nothing else: the warm replay must judge f by the links it crosses now,
// not by the ones it was last frozen through. Warm and cold runs agree to
// the byte.
func TestDegradeAndRerouteInOneInstant(t *testing.T) {
	g := topo.NewGrid(2, 2, topo.Options{})
	path, err := route.Build(g, route.UniformCost).Path(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	x, y := int(path[0]), int(path[1])
	a := topo.NodeID(-1)
	for _, e := range g.Edges() {
		if e.Index() == x {
			a = e.Other(0)
		}
	}
	specs := []workload.FlowSpec{
		{Src: 0, Dst: int(a), Bytes: 10e6},
		{Src: 0, Dst: 3, Bytes: 10e6},
	}
	base, err := Run(Config{Graph: g}, specs)
	if err != nil {
		t.Fatal(err)
	}
	at := sim.Time(base.Flows[0].FCT / 4)
	sched := faults.New(
		faults.Event{At: at, Target: x, Kind: faults.Degrade, Frac: 0.5},
		faults.Event{At: at, Target: y, Kind: faults.LinkDown},
	)
	warm, err := Run(Config{Graph: g, Faults: sched}, specs)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Faults.Reroutes != 1 || warm.Faults.StarvedEpisodes != 0 {
		t.Fatalf("want one reroute and no starvation: %+v", warm.Faults)
	}
	cold, err := Run(Config{Graph: g, Faults: sched, coldStart: true}, specs)
	if err != nil {
		t.Fatal(err)
	}
	if fingerprint(cold) != fingerprint(warm) {
		t.Fatalf("warm and cold diverged:\n--- warm ---\n%s\n--- cold ---\n%s",
			fingerprint(warm), fingerprint(cold))
	}
}

// TestPartitionStarvesUntilRepair: on a line there is no detour, so a
// mid-flow outage parks the flow at rate 0 for exactly the outage and the
// FCT stretches by it — the recovery-time accounting the churn experiment
// reports. The repair heals the flow's own path, so the flow is not
// stranded and stays on it: no reroute.
func TestPartitionStarvesUntilRepair(t *testing.T) {
	g := topo.NewLine(4, topo.Options{})
	specs := []workload.FlowSpec{{Src: 0, Dst: 3, Bytes: 10e6}}
	base, err := Run(Config{Graph: g}, specs)
	if err != nil {
		t.Fatal(err)
	}
	li := edgeBetween(t, g, 1, 2)
	down := sim.Time(base.Flows[0].FCT / 4)
	outage := sim.Duration(base.Flows[0].FCT) // park it for one baseline-FCT
	sched := faults.New(
		faults.Event{At: down, Target: li, Kind: faults.LinkDown},
		faults.Event{At: down.Add(outage), Target: li, Kind: faults.LinkUp},
	)
	churn, err := Run(Config{Graph: g, Faults: sched}, specs)
	if err != nil {
		t.Fatal(err)
	}
	if churn.Faults.StarvedEpisodes != 1 {
		t.Fatalf("starved episodes = %d, want 1 (%+v)", churn.Faults.StarvedEpisodes, churn.Faults)
	}
	if churn.Faults.StarvedTime != outage {
		t.Fatalf("starved time = %v, want the outage %v", churn.Faults.StarvedTime, outage)
	}
	if churn.Faults.Reroutes != 0 {
		t.Fatalf("reroutes = %d, want 0: the repair healed the flow's own path", churn.Faults.Reroutes)
	}
	if got, want := churn.Flows[0].FCT, base.Flows[0].FCT+outage; got != want {
		t.Fatalf("FCT = %v, want baseline+outage = %v", got, want)
	}
}

// TestUnhealedPartitionErrors: a down with no matching up strands the flow
// forever; the run must fail loudly naming the starvation, not stall or
// fabricate a completion.
func TestUnhealedPartitionErrors(t *testing.T) {
	g := topo.NewLine(3, topo.Options{})
	specs := []workload.FlowSpec{{Src: 0, Dst: 2, Bytes: 1e6}}
	sched := faults.New(faults.Event{At: sim.Time(sim.Microsecond), Target: edgeBetween(t, g, 0, 1), Kind: faults.LinkDown})
	_, err := Run(Config{Graph: g, Faults: sched}, specs)
	if err == nil || !strings.Contains(err.Error(), "starved") {
		t.Fatalf("want starvation error, got %v", err)
	}
}

// TestNodeLossPartitionsItsFlows: losing a node downs all its links; flows
// to it starve until NodeUp, then finish. Exercises the node-loss lowering
// end to end through the engine.
func TestNodeLossPartitionsItsFlows(t *testing.T) {
	g := topo.NewGrid(3, 3, topo.Options{})
	specs := []workload.FlowSpec{{Src: 0, Dst: 8, Bytes: 10e6}}
	base, err := Run(Config{Graph: g}, specs)
	if err != nil {
		t.Fatal(err)
	}
	down := sim.Time(base.Flows[0].FCT / 4)
	up := down.Add(sim.Duration(base.Flows[0].FCT / 2))
	sched := faults.New(
		faults.Event{At: down, Target: 8, Kind: faults.NodeDown},
		faults.Event{At: up, Target: 8, Kind: faults.NodeUp},
	)
	churn, err := Run(Config{Graph: g, Faults: sched}, specs)
	if err != nil {
		t.Fatal(err)
	}
	if churn.Faults.StarvedEpisodes != 1 {
		t.Fatalf("starved episodes = %d, want 1", churn.Faults.StarvedEpisodes)
	}
	if churn.Flows[0].FCT <= base.Flows[0].FCT {
		t.Fatalf("FCT %v not stretched past baseline %v by the node loss", churn.Flows[0].FCT, base.Flows[0].FCT)
	}
}

// TestDegradeSlowsWithoutRerouting: a degrade keeps the link in the
// topology — no reroute, no starvation, strictly longer FCT while it
// lasts; restoring mid-flow returns the flow to full rate.
func TestDegradeSlowsWithoutRerouting(t *testing.T) {
	g := topo.NewLine(3, topo.Options{})
	specs := []workload.FlowSpec{{Src: 0, Dst: 2, Bytes: 10e6}}
	base, err := Run(Config{Graph: g}, specs)
	if err != nil {
		t.Fatal(err)
	}
	li := edgeBetween(t, g, 0, 1)
	at := sim.Time(base.Flows[0].FCT / 2)
	sched := faults.New(
		faults.Event{At: at, Target: li, Kind: faults.Degrade, Frac: 0.25},
		faults.Event{At: at.Add(sim.Duration(base.Flows[0].FCT / 4)), Target: li, Kind: faults.LinkUp},
	)
	churn, err := Run(Config{Graph: g, Faults: sched}, specs)
	if err != nil {
		t.Fatal(err)
	}
	if churn.Faults.Reroutes != 0 || churn.Faults.StarvedEpisodes != 0 {
		t.Fatalf("degrade must not reroute or starve: %+v", churn.Faults)
	}
	if churn.Faults.CapacityEvents != 2 {
		t.Fatalf("capacity events = %d, want 2", churn.Faults.CapacityEvents)
	}
	if churn.Flows[0].FCT <= base.Flows[0].FCT {
		t.Fatalf("degraded FCT %v not longer than baseline %v", churn.Flows[0].FCT, base.Flows[0].FCT)
	}
}

// TestFaultedRunRestoresGraph: a faulted run must leave every edge's
// administrative state as it found it, even when the schedule ends with
// links down, so baseline and churn trials can share a graph.
func TestFaultedRunRestoresGraph(t *testing.T) {
	g := topo.NewGrid(3, 3, topo.Options{})
	specs := []workload.FlowSpec{{Src: 0, Dst: 2, Bytes: 1e6}}
	sched := faults.New(faults.Event{At: 0, Target: edgeBetween(t, g, 3, 4), Kind: faults.LinkDown})
	if _, err := Run(Config{Graph: g, Faults: sched}, specs); err != nil {
		t.Fatal(err)
	}
	for _, e := range g.Edges() {
		if !e.Enabled() {
			t.Fatalf("edge %d-%d left disabled after the run", e.A, e.B)
		}
	}
	base, err := Run(Config{Graph: g}, specs)
	if err != nil {
		t.Fatal(err)
	}
	if base.Faults.CapacityEvents != 0 {
		t.Fatalf("fault-free rerun saw %d capacity events", base.Faults.CapacityEvents)
	}
}

// TestFaultGroupMatchesSequential: a node loss lowers to one capacity
// event per incident link, all at the same instant. Applying that instant
// as one group (one RepairBatch, one pass over the stranded flows, one
// refill) must leave every traffic-carrying flow on the same path, at the
// same rate, with the same remaining volume, as applying the events one at
// a time — no simulated time separates the events, so the intermediate
// topologies the sequential path routes against are unobservable. Each
// grouped instant runs at most one fill. The transit scenario (no flow
// terminates at the lost node) demands full equivalence through to the
// drained completion records. The endpoint scenario pins down the bug the
// group path fixes: sequential restore rescues starved flows after every
// individual link-up, stranding them on detours through half-healed
// topologies, while the group rescues once against the instant's true
// final table — so rescued flows must sit on exactly the healed table's
// shortest paths, never longer than sequential left them.
func TestFaultGroupMatchesSequential(t *testing.T) {
	const lost = 5 // interior node of the 4x4 grid: four incident links per instant
	down, up := sim.Time(sim.Millisecond), sim.Time(3*sim.Millisecond)

	mk := func(specs []workload.FlowSpec) (*topo.Graph, *engine) {
		t.Helper()
		g := topo.NewGrid(4, 4, topo.Options{})
		en := newEngine(g)
		if err := en.addBatch(specs); err != nil {
			t.Fatal(err)
		}
		for i := range en.flows {
			en.arrive([]int32{int32(i)}, 0)
		}
		return g, en
	}
	lower := func(g *topo.Graph) []faults.LinkEvent {
		t.Helper()
		sched := faults.New(
			faults.Event{At: down, Target: lost, Kind: faults.NodeDown},
			faults.Event{At: up, Target: lost, Kind: faults.NodeUp},
		)
		evs, err := sched.Links(g)
		if err != nil {
			t.Fatal(err)
		}
		if len(evs)%2 != 0 || evs[len(evs)/2-1].At != down || evs[len(evs)/2].At != up {
			t.Fatalf("unexpected lowering %v", evs)
		}
		return evs
	}
	fills := func(en *engine) int64 {
		st := en.stats.SolverStats
		return st.WarmHits + st.WarmFallbacks + st.ColdFills
	}
	apply := func(t *testing.T, en *engine, evs []faults.LinkEvent, grouped bool) {
		t.Helper()
		if grouped {
			before := fills(en)
			en.applyLinkEventGroup(evs[0].At, evs)
			if n := fills(en) - before; n > 1 {
				t.Fatalf("the group at %v ran %d fills, want at most 1", evs[0].At, n)
			}
			return
		}
		for _, ev := range evs {
			en.applyLinkEvent(ev.At, ev)
		}
	}
	// Remaining volume is stored lazily as (remaining, settled): an
	// unchanged rate skips settlement, so the two engines anchor the same
	// physical volume at different instants. Normalize to the comparison
	// instant; the differing subtraction chains cost at most ULPs.
	norm := func(f *flowState, at sim.Time) float64 {
		return f.remaining - f.rate*at.Sub(f.settled).Seconds()
	}
	sameFlows := func(t *testing.T, seq, batch *engine, phase string, at sim.Time) {
		t.Helper()
		for fid := range seq.flows {
			sf, bf := &seq.flows[fid], &batch.flows[fid]
			if sf.starved != bf.starved {
				t.Errorf("%s: flow %d starved %v vs %v", phase, fid, sf.starved, bf.starved)
			}
			// A starved flow's parked path is unobservable: it moves no
			// bits there and the healing group re-paths it if the path
			// is still cut. Sequential application parks it on whichever
			// intermediate-topology path it last held; the group parks it
			// on its pre-fault path.
			if !sf.starved && !slices.Equal(sf.links, bf.links) {
				t.Errorf("%s: flow %d paths diverged: %v vs %v", phase, fid, sf.links, bf.links)
			}
		}
		if t.Failed() {
			t.FailNow()
		}
		for fid := range seq.flows {
			sf, bf := &seq.flows[fid], &batch.flows[fid]
			if sf.rate != bf.rate {
				t.Errorf("%s: flow %d rate diverged: %v vs %v", phase, fid, sf.rate, bf.rate)
			}
			sr, br := norm(sf, at), norm(bf, at)
			if d := sr - br; d > 1e-3 || d < -1e-3 {
				t.Errorf("%s: flow %d remaining diverged: %v vs %v", phase, fid, sr, br)
			}
		}
		if t.Failed() {
			t.FailNow()
		}
	}
	sameStats := func(t *testing.T, seq, batch *engine) {
		t.Helper()
		if seq.stats.Faults.CapacityEvents != batch.stats.Faults.CapacityEvents {
			t.Fatalf("capacity events %d vs %d", seq.stats.Faults.CapacityEvents, batch.stats.Faults.CapacityEvents)
		}
		if seq.stats.Faults.StarvedEpisodes != batch.stats.Faults.StarvedEpisodes || seq.stats.Faults.StarvedTime != batch.stats.Faults.StarvedTime {
			t.Fatalf("starvation accounting diverged: %+v vs %+v", seq.stats.Faults, batch.stats.Faults)
		}
		if batch.stats.Faults.RouteRepairs > seq.stats.Faults.RouteRepairs {
			t.Fatalf("batch rebuilt %d columns, sequential only %d", batch.stats.Faults.RouteRepairs, seq.stats.Faults.RouteRepairs)
		}
		if batch.stats.Faults.Reroutes > seq.stats.Faults.Reroutes {
			t.Fatalf("batch rerouted %d times, sequential only %d", batch.stats.Faults.Reroutes, seq.stats.Faults.Reroutes)
		}
	}
	drain := func(t *testing.T, en *engine) []FlowResult {
		t.Helper()
		var out []FlowResult
		for en.activeCount > 0 {
			at, fid := en.nextDone()
			if fid < 0 {
				t.Fatal("stalled with active flows")
			}
			en.complete([]int32{fid}, at)
			out = append(out, en.result(fid, at))
		}
		return out
	}

	t.Run("transit", func(t *testing.T) {
		// Corner-to-corner flows around the lost node: reroutes, no
		// starvation, so nothing depends on rescue order and the two
		// application shapes must agree on everything observable.
		specs := []workload.FlowSpec{
			{Src: 0, Dst: 10, Bytes: 10e6}, {Src: 1, Dst: 9, Bytes: 10e6},
			{Src: 4, Dst: 6, Bytes: 10e6}, {Src: 12, Dst: 2, Bytes: 10e6},
			{Src: 8, Dst: 7, Bytes: 10e6}, {Src: 13, Dst: 3, Bytes: 10e6},
		}
		gSeq, seq := mk(specs)
		gBatch, batch := mk(specs)
		evsSeq, evsBatch := lower(gSeq), lower(gBatch)
		h := len(evsSeq) / 2

		apply(t, seq, evsSeq[:h], false)
		apply(t, batch, evsBatch[:h], true)
		sameFlows(t, seq, batch, "after node loss", down)
		if seq.stats.Faults.Reroutes == 0 {
			t.Fatal("node loss rerouted nothing — the scenario is inert")
		}
		if seq.starvedNow != 0 {
			t.Fatalf("%d transit flows starved — meant to exercise the no-rescue path", seq.starvedNow)
		}

		apply(t, seq, evsSeq[h:], false)
		apply(t, batch, evsBatch[h:], true)
		sameFlows(t, seq, batch, "after restore", up)
		sameStats(t, seq, batch)

		sr, br := drain(t, seq), drain(t, batch)
		for i := range sr {
			if sr[i].Spec != br[i].Spec || sr[i].Start != br[i].Start || sr[i].Hops != br[i].Hops {
				t.Fatalf("completion %d diverged:\nseq:   %+v\nbatch: %+v", i, sr[i], br[i])
			}
			// The settle chains differ (sequential settles at every
			// intermediate refill), costing at most ULPs of remaining
			// volume — picoseconds of FCT.
			if d := sr[i].FCT - br[i].FCT; d > sim.Nanosecond || d < -sim.Nanosecond {
				t.Fatalf("completion %d FCT diverged: %v vs %v", i, sr[i].FCT, br[i].FCT)
			}
		}
	})

	t.Run("endpoint", func(t *testing.T) {
		// A permutation includes flows terminating at the lost node: they
		// starve through the outage and rescue on restore.
		specs := workload.Permutation(sim.NewRNG(7), 16, workload.Fixed(10e6))
		gSeq, seq := mk(specs)
		gBatch, batch := mk(specs)
		evsSeq, evsBatch := lower(gSeq), lower(gBatch)
		h := len(evsSeq) / 2

		apply(t, seq, evsSeq[:h], false)
		apply(t, batch, evsBatch[:h], true)
		sameFlows(t, seq, batch, "after node loss", down)
		if seq.starvedNow == 0 {
			t.Fatal("node loss starved nothing — the scenario is inert")
		}
		rescued := make([]int32, 0, len(batch.flows))
		for fid := range batch.flows {
			if batch.flows[fid].starved {
				rescued = append(rescued, int32(fid))
			}
		}

		apply(t, seq, evsSeq[h:], false)
		apply(t, batch, evsBatch[h:], true)
		sameStats(t, seq, batch)

		// The group's one pass over stranded flows runs against the
		// instant's final table: every rescued flow must sit on exactly
		// the healed topology's shortest path. Sequential rescue fires
		// after each individual link-up and can strand a flow on a detour
		// through the half-healed fabric — never shorter than the group's
		// choice.
		healed := route.Build(gBatch, route.UniformCost)
		for _, fid := range rescued {
			bf, sf := &batch.flows[fid], &seq.flows[fid]
			if bf.starved || sf.starved {
				t.Fatalf("flow %d still starved after the restore instant", fid)
			}
			want, err := healed.Path(topo.NodeID(bf.spec.Src), topo.NodeID(bf.spec.Dst))
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(bf.links, want) {
				t.Fatalf("rescued flow %d not on the healed shortest path: %v, want %v", fid, bf.links, want)
			}
			if len(bf.links) > len(sf.links) {
				t.Fatalf("group rescue left flow %d on %d hops, sequential managed %d", fid, len(bf.links), len(sf.links))
			}
		}
		// Unrescued flows kept their outage detours in both shapes.
		for fid := range seq.flows {
			if !slices.Contains(rescued, int32(fid)) && !slices.Equal(seq.flows[fid].links, batch.flows[fid].links) {
				t.Fatalf("unstarved flow %d paths diverged: %v vs %v", fid, seq.flows[fid].links, batch.flows[fid].links)
			}
		}

		// Both shapes drain completely; the group never costs a flow hops.
		sr, br := drain(t, seq), drain(t, batch)
		seqHops, batchHops := 0, 0
		for i := range sr {
			seqHops += sr[i].Hops
		}
		for i := range br {
			batchHops += br[i].Hops
		}
		if batchHops > seqHops {
			t.Fatalf("group application cost hops: %d vs sequential %d", batchHops, seqHops)
		}
	})
}

// TestSolverStatsAttributeFills: Result.Solver counts every fill under the
// path that served it and reports a warm hit rate.
func TestSolverStatsAttributeFills(t *testing.T) {
	g := topo.NewTorus(4, 4, topo.Options{})
	specs := workload.Permutation(sim.NewRNG(5), 16, workload.Fixed(1e6))

	res, err := Run(Config{Graph: g}, specs)
	if err != nil {
		t.Fatal(err)
	}
	fills := res.Solver.WarmHits + res.Solver.WarmFallbacks + res.Solver.ColdFills
	if fills == 0 {
		t.Fatal("no fills counted")
	}
	if res.Solver.WarmHits == 0 {
		t.Fatalf("warm engine recorded zero oracle hits over %d fills", fills)
	}
	if pct := res.Solver.WarmHitPct(); pct <= 0 || pct > 100 {
		t.Fatalf("warm hit pct = %v", pct)
	}

	// The cold engine must attribute every fill to ColdFills.
	cold, err := Run(Config{Graph: g, coldStart: true}, specs)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Solver.WarmHits != 0 || cold.Solver.WarmFallbacks != 0 || cold.Solver.ColdFills == 0 {
		t.Fatalf("cold engine solver stats: %+v", cold.Solver)
	}
}
