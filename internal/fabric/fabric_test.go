package fabric

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"

	"rackfab/internal/host"
	"rackfab/internal/phy"
	"rackfab/internal/plp"
	"rackfab/internal/ringctl"
	"rackfab/internal/sim"
	"rackfab/internal/switching"
	"rackfab/internal/topo"
	"rackfab/internal/trace"
	"rackfab/internal/workload"
)

func build(t *testing.T, g *topo.Graph, mutate ...func(*Config)) (*sim.Engine, *Fabric) {
	t.Helper()
	eng := sim.New()
	cfg := DefaultConfig(g)
	for _, m := range mutate {
		m(&cfg)
	}
	f, err := New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng, f
}

func TestSingleFlowAcrossGrid(t *testing.T) {
	g := topo.NewGrid(4, 4, topo.Options{})
	_, f := build(t, g)
	flows, err := f.InjectFlows([]workload.FlowSpec{{Src: 0, Dst: 15, Bytes: 15000}})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.RunUntilDone(sim.Time(sim.Second)); err != nil {
		t.Fatal(err)
	}
	fl := flows[0]
	if !fl.Done() || fl.Retransmits() != 0 {
		t.Fatalf("done=%v retx=%d", fl.Done(), fl.Retransmits())
	}
	// Path (0,0)→(3,3) is 6 hops; every frame must have walked 6 switches.
	if got := f.Stats().Hops.Max(); got != 6 {
		t.Fatalf("hops = %d, want 6", got)
	}
	if f.Stats().Delivered.Value() != 10 {
		t.Fatalf("delivered = %d frames", f.Stats().Delivered.Value())
	}
}

func TestLatencyBreakdownMatchesModel(t *testing.T) {
	// One hop on a 2-node line: latency = NIC serialization + pipeline
	// + header (cut-through) + propagation + ... measure a single frame
	// and check it lands in the analytically expected window.
	g := topo.NewLine(2, topo.Options{})
	_, f := build(t, g)
	if _, err := f.InjectFlows([]workload.FlowSpec{{Src: 0, Dst: 1, Bytes: 1500}}); err != nil {
		t.Fatal(err)
	}
	if err := f.RunUntilDone(sim.Time(sim.Second)); err != nil {
		t.Fatal(err)
	}
	lat := sim.Duration(f.Stats().Latency.Max())
	pipeline := f.cfg.Switch.PipelineLatency
	// Lower bound: two pipelines (src switch, dst switch none — dst is
	// host delivery) — at minimum one pipeline + propagation + header.
	min := pipeline + 9*sim.Nanosecond
	max := 3*pipeline + 10*sim.Microsecond
	if lat < min || lat > max {
		t.Fatalf("one-hop latency %v outside [%v, %v]", lat, min, max)
	}
}

func TestCutThroughBeatsStoreAndForward(t *testing.T) {
	run := func(mode switching.Mode) sim.Duration {
		g := topo.NewLine(6, topo.Options{})
		_, f := build(t, g, func(c *Config) { c.Switch.Mode = mode })
		if _, err := f.InjectFlows([]workload.FlowSpec{{Src: 0, Dst: 5, Bytes: 1500}}); err != nil {
			t.Fatal(err)
		}
		if err := f.RunUntilDone(sim.Time(sim.Second)); err != nil {
			t.Fatal(err)
		}
		return sim.Duration(f.Stats().Latency.Max())
	}
	ct := run(switching.CutThrough)
	sf := run(switching.StoreAndForward)
	if ct >= sf {
		t.Fatalf("cut-through (%v) not faster than store-and-forward (%v)", ct, sf)
	}
	// S&F pays (serialization − header) extra per link: a 1538 B frame on
	// a 2×25.78G bundle serializes in ≈239 ns vs a 64 B header's ≈10 ns,
	// so 5 links must open a gap of roughly 5 × 229 ns.
	if sf-ct < 1000*sim.Nanosecond {
		t.Fatalf("gap %v too small", sf-ct)
	}
}

func TestECMPBalancesAcrossTies(t *testing.T) {
	g := topo.NewGrid(3, 3, topo.Options{})
	_, f := build(t, g)
	// Many flows corner-to-corner: ECMP should spread across the two
	// outgoing edges of the corner.
	specs := make([]workload.FlowSpec, 40)
	for i := range specs {
		specs[i] = workload.FlowSpec{Src: 0, Dst: 8, Bytes: 1500}
	}
	if _, err := f.InjectFlows(specs); err != nil {
		t.Fatal(err)
	}
	if err := f.RunUntilDone(sim.Time(sim.Second)); err != nil {
		t.Fatal(err)
	}
	right, _ := g.EdgeBetween(g.NodeAt(0, 0), g.NodeAt(1, 0))
	down, _ := g.EdgeBetween(g.NodeAt(0, 0), g.NodeAt(0, 1))
	br := right.Link.Lanes[0].Stats.BitsCarried.Value() + right.Link.Lanes[1].Stats.BitsCarried.Value()
	bd := down.Link.Lanes[0].Stats.BitsCarried.Value() + down.Link.Lanes[1].Stats.BitsCarried.Value()
	if br == 0 || bd == 0 {
		t.Fatalf("ECMP did not spread: right=%d down=%d", br, bd)
	}
}

func TestCorruptFrameRecovered(t *testing.T) {
	g := topo.NewLine(3, topo.Options{})
	// Heavy noise on the middle link, no FEC: frames get corrupted, the
	// receiver NACKs, the sender retransmits, the flow still completes.
	e, _ := g.EdgeBetween(1, 2)
	for _, lane := range e.Link.Lanes {
		lane.SetBER(2e-6)
	}
	_, f := build(t, g)
	flows, err := f.InjectFlows([]workload.FlowSpec{{Src: 0, Dst: 2, Bytes: 1500 * 200}})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.RunUntilDone(sim.Time(sim.Second)); err != nil {
		t.Fatal(err)
	}
	if f.Stats().Corrupt.Value() == 0 {
		t.Fatal("no corruption at BER 2e-6 over 200 frames — error model dead?")
	}
	if flows[0].Retransmits() == 0 {
		t.Fatal("corruption seen but nothing retransmitted")
	}
}

// TestNACKDelayCountsHops: a corruption NACK is charged per switch hop of
// the reverse path, not per unit of its price. On a 3-node line re-priced
// at 2.5 per link, node 2 is 2 hops from node 0 at a distance of 5.
func TestNACKDelayCountsHops(t *testing.T) {
	g := topo.NewLine(3, topo.Options{})
	_, f := build(t, g)
	f.RebuildRoutes(func(*topo.Edge) float64 { return 2.5 })
	perHop := f.cfg.Switch.PipelineLatency + 10*sim.Nanosecond
	if got, want := f.nackDelay(2, 0), 2*perHop; got != want {
		t.Fatalf("NACK delay over 2 hops priced 2.5 each = %v, want %v", got, want)
	}
}

func TestPLPBreakChangesRate(t *testing.T) {
	g := topo.NewGrid(3, 3, topo.Options{LanesPerLink: 2})
	eng, f := build(t, g)
	e := g.Edges()[0]
	before := e.Link.RawRate()
	var completed *plp.Result
	err := f.Execute(plp.Command{
		Kind: plp.Break, Link: e.Index(), KeepLanes: 1, FreedState: phy.LaneOff,
	}, func(r plp.Result) { completed = &r })
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.RunUntil(sim.Time(sim.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if completed == nil {
		t.Fatal("break never completed")
	}
	if e.Link.RawRate() >= before {
		t.Fatal("break did not reduce rate")
	}
	// Break on backplane costs the reshape time.
	if completed.CompletedAt != sim.Time(phy.ProfileOf(phy.Backplane).ReshapeTime) {
		t.Fatalf("break completed at %v", completed.CompletedAt)
	}
	if completed.PowerDeltaW >= 0 {
		t.Fatal("turning lanes off should reduce power")
	}
}

func TestGridToTorusReconfiguration(t *testing.T) {
	g := topo.NewGrid(4, 4, topo.Options{LanesPerLink: 2})
	eng, f := build(t, g)
	hopsBefore, err := g.MeanHops()
	if err != nil {
		t.Fatal(err)
	}
	plan, err := topo.GridToTorusPlan(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	served := 0
	for _, cmd := range plan.Commands {
		if err := f.Execute(cmd, func(plp.Result) { served++ }); err != nil {
			t.Fatalf("executing %v: %v", cmd, err)
		}
	}
	if err := eng.RunUntil(sim.Time(10 * sim.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if served != len(plan.Commands) {
		t.Fatalf("served %d of %d commands", served, len(plan.Commands))
	}
	hopsAfter, err := g.MeanHops()
	if err != nil {
		t.Fatal(err)
	}
	if hopsAfter >= hopsBefore {
		t.Fatalf("mean hops %v → %v: reconfiguration did not help", hopsBefore, hopsAfter)
	}
	// 8 express wrap channels must exist.
	express := 0
	for _, e := range g.Edges() {
		if e.Express {
			express++
		}
	}
	if express != 8 {
		t.Fatalf("express channels = %d, want 8", express)
	}
	// Traffic still flows end-to-end after the mutation, using fewer hops.
	if _, err := f.InjectFlows([]workload.FlowSpec{{Src: 0, Dst: 3, Bytes: 1500}}); err != nil {
		t.Fatal(err)
	}
	if err := f.RunUntilDone(sim.Time(sim.Second)); err != nil {
		t.Fatal(err)
	}
	if got := f.Stats().Hops.Max(); got != 1 {
		t.Fatalf("wrap route hops = %d, want 1 (express)", got)
	}
}

func TestBypassExpressLatency(t *testing.T) {
	// After a 0↔3 express on a 4-line, end-to-end latency must beat the
	// 3-switch path by roughly two pipeline traversals.
	run := func(withBypass bool) sim.Duration {
		g := topo.NewLine(4, topo.Options{LanesPerLink: 2})
		eng, f := build(t, g)
		if withBypass {
			for x := 0; x+1 < 4; x++ {
				e, _ := g.EdgeBetween(topo.NodeID(x), topo.NodeID(x+1))
				if err := f.Execute(plp.Command{Kind: plp.Break, Link: e.Index(), KeepLanes: 1, FreedState: phy.LaneBypassed}, nil); err != nil {
					t.Fatal(err)
				}
			}
			if err := f.Execute(plp.Command{Kind: plp.BypassOn, Path: []int{0, 1, 2, 3}}, nil); err != nil {
				t.Fatal(err)
			}
			if err := eng.RunUntil(sim.Time(10 * sim.Millisecond)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := f.InjectFlows([]workload.FlowSpec{{Src: 0, Dst: 3, Bytes: 1500}}); err != nil {
			t.Fatal(err)
		}
		if err := f.RunUntilDone(sim.Time(sim.Second)); err != nil {
			t.Fatal(err)
		}
		return sim.Duration(f.Stats().Latency.Max())
	}
	direct := run(false)
	express := run(true)
	if express >= direct {
		t.Fatalf("express latency %v not better than switched %v", express, direct)
	}
	// Two intermediate switch traversals (~900 ns) collapse to ~16 ns of
	// retimers.
	if direct-express < 500*sim.Nanosecond {
		t.Fatalf("express gain only %v", direct-express)
	}
}

func TestBypassOffRestores(t *testing.T) {
	g := topo.NewLine(3, topo.Options{LanesPerLink: 2})
	eng, f := build(t, g)
	for x := 0; x+1 < 3; x++ {
		e, _ := g.EdgeBetween(topo.NodeID(x), topo.NodeID(x+1))
		if err := f.Execute(plp.Command{Kind: plp.Break, Link: e.Index(), KeepLanes: 1, FreedState: phy.LaneBypassed}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Execute(plp.Command{Kind: plp.BypassOn, Path: []int{0, 1, 2}}, nil); err != nil {
		t.Fatal(err)
	}
	if err := eng.RunUntil(sim.Time(10 * sim.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if _, ok := g.ExpressBetween(0, 2); !ok {
		t.Fatal("express missing")
	}
	if err := f.Execute(plp.Command{Kind: plp.BypassOff, Path: []int{0, 1, 2}}, nil); err != nil {
		t.Fatal(err)
	}
	if err := eng.RunUntil(sim.Time(20 * sim.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if _, ok := g.ExpressBetween(0, 2); ok {
		t.Fatal("express not removed")
	}
	// Traffic still routes the long way.
	if _, err := f.InjectFlows([]workload.FlowSpec{{Src: 0, Dst: 2, Bytes: 1500}}); err != nil {
		t.Fatal(err)
	}
	if err := f.RunUntilDone(sim.Time(sim.Second)); err != nil {
		t.Fatal(err)
	}
}

// bypassLine donates one lane of every link of an n-node line and joins
// its end nodes with an express link, returned once it is up.
func bypassLine(t *testing.T, eng *sim.Engine, f *Fabric, n int) *topo.Edge {
	t.Helper()
	path := []int{0}
	for x := 0; x+1 < n; x++ {
		e, _ := f.Graph().EdgeBetween(topo.NodeID(x), topo.NodeID(x+1))
		if err := f.Execute(plp.Command{Kind: plp.Break, Link: e.Index(), KeepLanes: 1, FreedState: phy.LaneBypassed}, nil); err != nil {
			t.Fatal(err)
		}
		path = append(path, x+1)
	}
	if err := f.Execute(plp.Command{Kind: plp.BypassOn, Path: path}, nil); err != nil {
		t.Fatal(err)
	}
	if err := eng.RunUntil(eng.Now().Add(10 * sim.Millisecond)); err != nil {
		t.Fatal(err)
	}
	e, ok := f.Graph().ExpressBetween(0, topo.NodeID(n-1))
	if !ok {
		t.Fatal("express missing")
	}
	return e
}

// TestCommandBehindBypassOffIsNoop: commands that target an express link
// and are queued behind the BypassOff that removes it find no link when
// they apply. Each completes without touching the fabric.
func TestCommandBehindBypassOffIsNoop(t *testing.T) {
	g := topo.NewLine(3, topo.Options{LanesPerLink: 2})
	eng, f := build(t, g)
	express := bypassLine(t, eng, f, 3)
	if err := f.Execute(plp.Command{Kind: plp.BypassOff, Path: []int{0, 1, 2}}, nil); err != nil {
		t.Fatal(err)
	}
	queued := []plp.Command{
		{Kind: plp.SetFEC, FECProfile: "rs(255,223)"},
		{Kind: plp.Break, KeepLanes: 1, FreedState: phy.LaneOff},
		{Kind: plp.Bundle},
		{Kind: plp.LaneOff, Lane: -1},
		{Kind: plp.LaneOn, Lane: -1},
	}
	completed := 0
	for _, cmd := range queued {
		cmd.Link = express.Index()
		if err := f.Execute(cmd, func(plp.Result) { completed++ }); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.RunUntil(eng.Now().Add(10 * sim.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if completed != len(queued) {
		t.Fatalf("%d of %d queued commands completed", completed, len(queued))
	}
	if _, ok := g.Edge(express.Index()); ok {
		t.Fatal("express link not removed")
	}
	if express.Link.FEC().Name() != "none" || express.Link.ActiveLanes() != 1 {
		t.Fatalf("removed link reconfigured: FEC %s, %d lanes", express.Link.FEC().Name(), express.Link.ActiveLanes())
	}
}

// TestTraceCoversExpressLinks: a traced fabric that builds an express link
// at runtime gives it a track named like the others, and traffic over it
// fills that track's utilization series.
func TestTraceCoversExpressLinks(t *testing.T) {
	g := topo.NewLine(4, topo.Options{LanesPerLink: 2})
	rec := trace.NewRecorder()
	rec.InitLinks(trace.LinkNames(g), true)
	eng, f := build(t, g, func(c *Config) { c.Trace = rec })
	express := bypassLine(t, eng, f, 4)
	if _, err := f.InjectFlows([]workload.FlowSpec{{Src: 0, Dst: 3, Bytes: 15000}}); err != nil {
		t.Fatal(err)
	}
	if err := f.RunUntilDone(sim.Time(sim.Second)); err != nil {
		t.Fatal(err)
	}
	if got := f.Stats().Hops.Max(); got != 1 {
		t.Fatalf("flow took %d hops, want 1 (express)", got)
	}
	var out strings.Builder
	if err := rec.WriteText(&out); err != nil {
		t.Fatal(err)
	}
	name := fmt.Sprintf("L%d:0-3", express.Index())
	if !strings.Contains(out.String(), " link="+name+" node=0 ") {
		t.Fatalf("no queue event names express link %s in:\n%s", name, out.String())
	}
	if !strings.Contains(out.String(), "series link="+name+" kind=util") {
		t.Fatalf("no utilization series for express link %s in:\n%s", name, out.String())
	}
}

func TestReportsReflectTraffic(t *testing.T) {
	g := topo.NewLine(2, topo.Options{})
	_, f := build(t, g)
	if _, err := f.InjectFlows([]workload.FlowSpec{{Src: 0, Dst: 1, Bytes: 1500 * 500}}); err != nil {
		t.Fatal(err)
	}
	if err := f.RunUntilDone(sim.Time(sim.Second)); err != nil {
		t.Fatal(err)
	}
	reports := f.Reports()
	if len(reports) != 1 {
		t.Fatalf("reports = %d", len(reports))
	}
	r := reports[0]
	if r.Utilization <= 0 {
		t.Fatal("utilization zero after 500 frames")
	}
	if !r.Up || r.ActiveLanes != 2 {
		t.Fatalf("report shape: %+v", r)
	}
	// Second report covers a fresh (idle) window.
	r2 := f.Reports()[0]
	if r2.Utilization != 0 {
		t.Fatalf("fresh window utilization = %v", r2.Utilization)
	}
}

// TestTopFlows: TopFlows returns the k flows a full sort by (bytes
// remaining descending, ID ascending) puts first, snapshot for snapshot,
// for k below, at and above the number of active flows, and nil for
// k <= 0. Most flows share one size, so before the run the ID tie-break
// decides among them.
func TestTopFlows(t *testing.T) {
	g := topo.NewGrid(3, 3, topo.Options{})
	_, f := build(t, g)
	specs := []workload.FlowSpec{
		{Src: 0, Dst: 8, Bytes: 100e6},
		{Src: 1, Dst: 7, Bytes: 1e3},
	}
	for i := 0; i < 24; i++ {
		specs = append(specs, workload.FlowSpec{Src: i % 9, Dst: (i + 4) % 9, Bytes: 5e6})
	}
	if _, err := f.InjectFlows(specs); err != nil {
		t.Fatal(err)
	}
	check := func(when string) {
		t.Helper()
		for _, k := range []int{-1, 0, 1, 4, 7, len(f.active), len(f.active) + 5} {
			if got, want := f.TopFlows(k), sortedTopFlows(f, k); !slices.Equal(got, want) {
				t.Fatalf("%s, k=%d: TopFlows = %+v, want %+v", when, k, got, want)
			}
		}
	}
	check("before the run")
	if err := f.RunFor(100 * sim.Microsecond); err != nil {
		t.Fatal(err)
	}
	top := f.TopFlows(1)
	if len(top) != 1 || top[0].BytesRemaining < 50e6 {
		t.Fatalf("top flows = %+v", top)
	}
	check("mid-run")
}

// sortedTopFlows is TopFlows' reference: snapshot every active flow, sort
// them all and keep the first k.
func sortedTopFlows(f *Fabric, k int) []ringctl.FlowSnapshot {
	if k <= 0 {
		return nil
	}
	var snaps []ringctl.FlowSnapshot
	//det:ordered sorted below by a total order
	for _, fl := range f.active {
		elapsed := f.eng.Now().Sub(fl.Started()).Seconds()
		rate := 0.0
		if elapsed > 0 {
			rate = float64(fl.AckedBytes()) * 8 / elapsed
		}
		snaps = append(snaps, ringctl.FlowSnapshot{
			ID: uint64(fl.ID), Src: fl.Src, Dst: fl.Dst,
			BytesRemaining: fl.Remaining(), Rate: rate,
		})
	}
	sort.Slice(snaps, func(i, j int) bool {
		if snaps[i].BytesRemaining != snaps[j].BytesRemaining {
			return snaps[i].BytesRemaining > snaps[j].BytesRemaining
		}
		return snaps[i].ID < snaps[j].ID
	})
	return snaps[:min(k, len(snaps))]
}

func TestPowerAccounting(t *testing.T) {
	g := topo.NewGrid(3, 3, topo.Options{})
	eng, f := build(t, g)
	w0 := f.TotalPowerW()
	if w0 <= 0 {
		t.Fatal("zero fabric power")
	}
	// Darken a link: power must drop.
	e := g.Edges()[0]
	if err := f.Execute(plp.Command{Kind: plp.LaneOff, Link: e.Index(), Lane: -1}, nil); err != nil {
		t.Fatal(err)
	}
	if err := eng.RunUntil(sim.Time(sim.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if w1 := f.TotalPowerW(); w1 >= w0 {
		t.Fatalf("power %v → %v after darkening a link", w0, w1)
	}
}

func TestClosedLoopWithController(t *testing.T) {
	// Full loop: fabric + CRC. A hot grid under shuffle traffic must end
	// reconfigured with routes intact and all flows completing.
	g := topo.NewGrid(4, 4, topo.Options{LanesPerLink: 2})
	eng, f := build(t, g)
	cfg := ringctl.DefaultConfig()
	cfg.Epoch = 50 * sim.Microsecond
	cfg.ReconfigUtilization = 0.05 // trigger easily under test load
	ctl := ringctl.New(eng, f, cfg)
	ctl.Start()

	rng := sim.NewRNG(7)
	specs := workload.Shuffle(rng, workload.ShuffleConfig{
		Mappers: workload.Range(16), Reducers: workload.Range(16),
		BytesPerPair: 64e3,
	})
	flows, err := f.InjectFlows(specs)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.RunUntilDone(sim.Time(2 * sim.Second)); err != nil {
		t.Fatal(err)
	}
	for _, fl := range flows {
		if !fl.Done() {
			t.Fatalf("flow %d unfinished", fl.ID)
		}
	}
	reconfigured := false
	for _, d := range ctl.Decisions() {
		reconfigured = reconfigured || (d.Policy == "reconfig" && d.Cmd != nil)
	}
	if !reconfigured {
		t.Fatal("controller never reconfigured the hot grid")
	}
	if jct, err := JobCompletionTime(flows); err != nil || jct <= 0 {
		t.Fatalf("JCT = %v err=%v", jct, err)
	}
}

func TestExecuteValidation(t *testing.T) {
	g := topo.NewLine(3, topo.Options{})
	_, f := build(t, g)
	if err := f.Execute(plp.Command{Kind: plp.Break, Link: 999, KeepLanes: 1, FreedState: phy.LaneOff}, nil); err == nil {
		t.Fatal("unknown link accepted")
	}
	if err := f.Execute(plp.Command{Kind: plp.BypassOn, Path: []int{0, 5, 9}}, nil); err == nil {
		t.Fatal("broken path accepted")
	}
	if err := f.Execute(plp.Command{Kind: plp.Break, Link: 0, KeepLanes: 0, FreedState: phy.LaneOff}, nil); err == nil {
		t.Fatal("invalid command accepted")
	}
	err := f.Execute(plp.Command{Kind: plp.BypassOn, Path: []int{0, 1, 2}}, nil)
	if err != nil && !strings.Contains(err.Error(), "bypass") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestLoopbackFlow(t *testing.T) {
	g := topo.NewLine(2, topo.Options{})
	_, f := build(t, g)
	// Src == Dst is rejected by ValidateSpecs; drive the host directly.
	fl := &host.Flow{ID: 99, Src: 0, Dst: 0, Bytes: 1500}
	f.active[99] = fl
	f.eng.At(0, "start", func() { f.hosts[0].StartFlow(fl) })
	if err := f.RunUntilDone(sim.Time(sim.Second)); err != nil {
		t.Fatal(err)
	}
	if !fl.Done() || f.Stats().Hops.Max() != 0 {
		t.Fatalf("loopback done=%v hops=%d", fl.Done(), f.Stats().Hops.Max())
	}
}

// TestPacketDatapathSteadyStateZeroAlloc runs one long per-frame flow
// across a warmed 3-node line and checks that the datapath then executes
// its events without allocating: the NIC cuts each frame from the flow's
// cursor into recycled storage, every per-frame event is typed, and the
// VOQ rings reuse their slots.
func TestPacketDatapathSteadyStateZeroAlloc(t *testing.T) {
	eng, f := build(t, topo.NewLine(3, topo.Options{}))
	flows, err := f.InjectFlows([]workload.FlowSpec{{Src: 0, Dst: 2, Bytes: 1 << 30}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20000; i++ {
		if !eng.Step() {
			t.Fatal("event list drained during warm-up")
		}
	}
	delivered := f.Stats().Delivered.Value()
	// AllocsPerRun truncates to whole allocations per run, so each run
	// steps 100 events: one allocation per frame would still show.
	allocs := testing.AllocsPerRun(50, func() {
		for i := 0; i < 100; i++ {
			eng.Step()
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state datapath allocates %.0f objects per 100 events, want 0", allocs)
	}
	if f.Stats().Delivered.Value()-delivered < 500 || flows[0].Done() {
		t.Fatalf("measured window delivered %d frames (flow done %v); want a busy mid-flow window",
			f.Stats().Delivered.Value()-delivered, flows[0].Done())
	}
}
