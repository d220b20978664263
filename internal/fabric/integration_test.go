package fabric

import (
	"math"
	"testing"

	"rackfab/internal/phy"
	"rackfab/internal/plp"
	"rackfab/internal/ringctl"
	"rackfab/internal/route"
	"rackfab/internal/sim"
	"rackfab/internal/topo"
	"rackfab/internal/workload"
)

// These tests exercise cross-module behaviour that the per-module suites
// cannot see: VLB through the real datapath, express port exhaustion,
// bundle restoration, burst channels under transport recovery, and the
// store-and-forward/PoC correspondence.

func TestVLBEndToEnd(t *testing.T) {
	g := topo.NewTorus(4, 4, topo.Options{})
	_, f := build(t, g)
	f.SetVLB(true)
	flows, err := f.InjectFlows([]workload.FlowSpec{
		{Src: 0, Dst: 15, Bytes: 15000},
		{Src: 3, Dst: 12, Bytes: 15000},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.RunUntilDone(sim.Time(sim.Second)); err != nil {
		t.Fatal(err)
	}
	for _, fl := range flows {
		if !fl.Done() {
			t.Fatal("VLB flow unfinished")
		}
	}
	// VLB paths must exceed the torus shortest-path mean (4x4 torus
	// diameter 4): frames pivot through an intermediate.
	if mean := f.Stats().Hops.Mean(); mean <= 2.0 {
		t.Fatalf("VLB mean hops %v suspiciously short", mean)
	}
	// Disabling VLB returns to shortest paths.
	f.SetVLB(false)
	before := f.Stats().Hops.Mean()
	if _, err := f.InjectFlows([]workload.FlowSpec{{Src: 0, Dst: 1, Bytes: 1500}}); err != nil {
		t.Fatal(err)
	}
	if err := f.RunUntilDone(sim.Time(sim.Second)); err != nil {
		t.Fatal(err)
	}
	if f.Stats().Hops.Max() > int64(math.Ceil(before))+4 {
		t.Fatal("shortest-path restore failed")
	}
}

func TestExpressPortExhaustion(t *testing.T) {
	g := topo.NewLine(3, topo.Options{LanesPerLink: 4})
	eng, f := build(t, g, func(c *Config) { c.ExpressPorts = 1 })
	// First bypass claims the single express port pair on nodes 0 and 2.
	for x := 0; x+1 < 3; x++ {
		e, _ := g.EdgeBetween(topo.NodeID(x), topo.NodeID(x+1))
		if err := f.Execute(plp.Command{Kind: plp.Break, Link: e.Index(), KeepLanes: 3, FreedState: phy.LaneBypassed}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Execute(plp.Command{Kind: plp.BypassOn, Path: []int{0, 1, 2}}, nil); err != nil {
		t.Fatal(err)
	}
	if err := eng.RunUntil(sim.Time(50 * sim.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if _, ok := g.ExpressBetween(0, 2); !ok {
		t.Fatal("first bypass missing")
	}
	// A second bypass over the same endpoints is idempotent (no error,
	// no new channel); after removing it, ports free up for reuse.
	if err := f.Execute(plp.Command{Kind: plp.BypassOff, Path: []int{0, 1, 2}}, nil); err != nil {
		t.Fatal(err)
	}
	if err := eng.RunUntil(sim.Time(100 * sim.Millisecond)); err != nil {
		t.Fatal(err)
	}
	// Donate more lanes and rebuild: must succeed on the freed ports.
	for x := 0; x+1 < 3; x++ {
		e, _ := g.EdgeBetween(topo.NodeID(x), topo.NodeID(x+1))
		if e.Link.ActiveLanes() >= 2 {
			if err := f.Execute(plp.Command{Kind: plp.Break, Link: e.Index(), KeepLanes: e.Link.ActiveLanes() - 1, FreedState: phy.LaneBypassed}, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := f.Execute(plp.Command{Kind: plp.BypassOn, Path: []int{0, 1, 2}}, nil); err != nil {
		t.Fatal(err)
	}
	if err := eng.RunUntil(sim.Time(200 * sim.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if _, ok := g.ExpressBetween(0, 2); !ok {
		t.Fatal("bypass after port release failed")
	}
}

// TestExpressPortsFitRouteDegree: a route table's tie masks cover
// route.MaxDegree links per node, so New refuses an ExpressPorts value that
// could push a node past it and accepts the largest one that fits.
func TestExpressPortsFitRouteDegree(t *testing.T) {
	g := topo.NewGrid(3, 3, topo.Options{})
	fits := route.MaxDegree - 4 // the centre node has four fabric links
	for _, ports := range []int{fits, fits + 1} {
		cfg := DefaultConfig(g)
		cfg.ExpressPorts = ports
		_, err := New(sim.NewSized(256), cfg)
		if ok := ports <= fits; (err == nil) != ok {
			t.Fatalf("ExpressPorts %d: err = %v, want accepted = %v", ports, err, ok)
		}
	}
}

// TestRoutesTrackAdjacency pins route.Table's adjacency invariant: tie
// masks name positions in g.Adjacent, so after an express channel comes
// and goes through Execute, the fabric's table must pick exactly the hops
// a fresh Build over the live graph picks, for every pair and hash.
func TestRoutesTrackAdjacency(t *testing.T) {
	g := topo.NewGrid(4, 4, topo.Options{LanesPerLink: 2})
	eng, f := build(t, g)
	n := topo.NodeID(g.NumNodes())
	check := func(stage string) {
		t.Helper()
		fresh := route.Build(g, f.costFn)
		for from := topo.NodeID(0); from < n; from++ {
			for dst := topo.NodeID(0); dst < n; dst++ {
				for h := uint64(0); h < route.MaxDegree; h++ {
					got, gotOK := f.table.NextHopECMP(from, dst, h)
					want, wantOK := fresh.NextHopECMP(from, dst, h)
					if got != want || gotOK != wantOK {
						t.Fatalf("%s: %d→%d hash %d: hop %v (%v), fresh Build %v (%v)", stage, from, dst, h, got, gotOK, want, wantOK)
					}
				}
			}
		}
	}
	path := []int{0, 1, 2, 3}
	for i := 0; i+1 < len(path); i++ {
		e, _ := g.EdgeBetween(topo.NodeID(path[i]), topo.NodeID(path[i+1]))
		if err := f.Execute(plp.Command{Kind: plp.Break, Link: e.Index(), KeepLanes: 1, FreedState: phy.LaneBypassed}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Execute(plp.Command{Kind: plp.BypassOn, Path: path}, nil); err != nil {
		t.Fatal(err)
	}
	if err := eng.RunUntil(sim.Time(10 * sim.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if _, ok := g.ExpressBetween(0, 3); !ok {
		t.Fatal("express channel missing after BypassOn")
	}
	check("break + bypass on")
	if err := f.Execute(plp.Command{Kind: plp.BypassOff, Path: path}, nil); err != nil {
		t.Fatal(err)
	}
	if err := eng.RunUntil(sim.Time(20 * sim.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if _, ok := g.ExpressBetween(0, 3); ok {
		t.Fatal("express channel still present after BypassOff")
	}
	check("bypass off")
}

func TestBundleRestoresRate(t *testing.T) {
	g := topo.NewLine(2, topo.Options{LanesPerLink: 4})
	eng, f := build(t, g)
	e := g.Edges()[0]
	full := e.Link.RawRate()
	if err := f.Execute(plp.Command{Kind: plp.Break, Link: e.Index(), KeepLanes: 1, FreedState: phy.LaneOff}, nil); err != nil {
		t.Fatal(err)
	}
	if err := eng.RunUntil(sim.Time(sim.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if e.Link.RawRate() >= full {
		t.Fatal("break did not cut rate")
	}
	if err := f.Execute(plp.Command{Kind: plp.Bundle, Link: e.Index()}, nil); err != nil {
		t.Fatal(err)
	}
	// Bundle takes reshape + retrain before lanes carry traffic again.
	if err := eng.RunUntil(sim.Time(sim.Second)); err != nil {
		t.Fatal(err)
	}
	if got := e.Link.RawRate(); math.Abs(got-full) > 1 {
		t.Fatalf("bundle restored %v of %v", got, full)
	}
	// And traffic still flows.
	if _, err := f.InjectFlows([]workload.FlowSpec{{Src: 0, Dst: 1, Bytes: 15000}}); err != nil {
		t.Fatal(err)
	}
	if err := f.RunUntilDone(sim.Time(2 * sim.Second)); err != nil {
		t.Fatal(err)
	}
}

func TestBurstChannelThroughTransport(t *testing.T) {
	g := topo.NewLine(2, topo.Options{LanesPerLink: 1})
	rng := sim.NewRNG(5)
	ch, err := phy.NewBurstChannel(rng, 1e-15, 5e-5, 500*sim.Microsecond, 500*sim.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	g.Edges()[0].Link.Lanes[0].AttachBurstChannel(ch)
	_, f := build(t, g)
	flows, err := f.InjectFlows([]workload.FlowSpec{{Src: 0, Dst: 1, Bytes: 3e6}})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.RunUntilDone(sim.Time(30 * sim.Second)); err != nil {
		t.Fatal(err)
	}
	if !flows[0].Done() {
		t.Fatal("flow unfinished through bursts")
	}
	// The channel starts in its near-clean Good state, so retransmits mean
	// it flipped into bursts.
	if flows[0].Retransmits() == 0 {
		t.Fatal("bursty link produced no retransmits — channel inactive?")
	}
}

func TestStoreAndForwardLatencyFormula(t *testing.T) {
	// One probe frame over N store-and-forward hops must match the closed
	// form used by the PoC model: serial + (N+1)(pipe+serial) + N·prop.
	const hops = 3
	g := topo.NewLine(hops+1, topo.Options{
		LanesPerLink: 1, LaneRate: 10e9, Media: phy.CopperDAC, NodeSpacingM: 2,
	})
	_, f := build(t, g, func(c *Config) {
		c.Switch.Mode = 1 // StoreAndForward
		c.Switch.PipelineLatency = 650 * sim.Nanosecond
		c.Host.NICRate = 10e9
	})
	if _, err := f.InjectFlows([]workload.FlowSpec{{Src: 0, Dst: hops, Bytes: 1500}}); err != nil {
		t.Fatal(err)
	}
	if err := f.RunUntilDone(sim.Time(sim.Second)); err != nil {
		t.Fatal(err)
	}
	serial := sim.Transmission(1538*8, 10e9)
	prop := phy.ProfileOf(phy.CopperDAC).Propagation(2)
	want := serial + sim.Duration(hops+1)*(650*sim.Nanosecond+serial) + sim.Duration(hops)*prop
	got := sim.Duration(f.Stats().Latency.Max())
	if diff := got - want; diff < -sim.Nanosecond || diff > sim.Nanosecond {
		t.Fatalf("S&F latency %v, closed form %v", got, want)
	}
}

func TestBypassLifecycleEndToEnd(t *testing.T) {
	// Full closed loop on the real fabric: an elephant squeezed by cross
	// traffic gets an express channel; once it drains and the channel
	// idles, the CRC reclaims it and re-bundles the donor lanes.
	g := topo.NewGrid(4, 4, topo.Options{LanesPerLink: 2})
	eng, f := build(t, g)
	cfg := ringctl.DefaultConfig()
	cfg.Epoch = 50 * sim.Microsecond
	cfg.EnableReconfig, cfg.EnablePower, cfg.EnableFEC, cfg.EnableRouting = false, false, false, false
	ctl := ringctl.New(eng, f, cfg)
	ctl.Start()

	at := func(x, y int) int { return y*4 + x }
	specs := []workload.FlowSpec{{Src: 0, Dst: 15, Bytes: 8e6, Label: "elephant"}}
	stream := func(src, dst int) {
		for t0 := sim.Time(0); t0 < sim.Time(4*sim.Millisecond); t0 = t0.Add(30 * sim.Microsecond) {
			specs = append(specs, workload.FlowSpec{Src: src, Dst: dst, Bytes: 128e3, At: t0, Label: "bg"})
		}
	}
	for x := 0; x < 4; x++ {
		stream(at(x, 0), at(x, 3))
		stream(at(x, 1), at(x, 3))
	}
	for y := 0; y < 4; y++ {
		stream(at(0, y), at(3, y))
		stream(at(1, y), at(3, y))
	}
	if _, err := f.InjectFlows(specs); err != nil {
		t.Fatal(err)
	}
	if err := f.RunUntilDone(sim.Time(60 * sim.Second)); err != nil {
		t.Fatal(err)
	}
	// Give the controller idle epochs to reclaim.
	if err := f.RunFor(20 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	sawOn, sawOff := false, false
	for _, d := range ctl.Decisions() {
		if d.Cmd == nil {
			continue
		}
		switch d.Cmd.Kind {
		case plp.BypassOn:
			sawOn = true
		case plp.BypassOff:
			sawOff = true
		}
	}
	if !sawOn {
		t.Fatal("no express channel was built for the squeezed elephant")
	}
	if !sawOff {
		t.Fatal("idle express channel was never reclaimed")
	}
	for _, e := range g.Edges() {
		if e.Express {
			t.Fatal("express edge still present after reclaim")
		}
		if e.Link.ActiveLanes() != 2 {
			t.Fatalf("link %d not re-bundled: %d lanes", e.Index(), e.Link.ActiveLanes())
		}
	}
}

func TestReportsCoverExpressChannels(t *testing.T) {
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
	if err := eng.RunUntil(sim.Time(50 * sim.Millisecond)); err != nil {
		t.Fatal(err)
	}
	reports := f.Reports()
	if len(reports) != 3 { // two construction links + one express
		t.Fatalf("reports = %d, want 3", len(reports))
	}
}
