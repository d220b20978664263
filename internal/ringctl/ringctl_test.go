package ringctl

import (
	"strings"
	"testing"

	"rackfab/internal/phy"
	"rackfab/internal/plp"
	"rackfab/internal/power"
	"rackfab/internal/route"
	"rackfab/internal/sim"
	"rackfab/internal/topo"
)

// fakeFabric implements Fabric for controller tests. Break/Lane/SetFEC
// commands are applied to the real phy links in the graph so policy logic
// sees consistent state; BypassOn is recorded without graph mutation.
type fakeFabric struct {
	t        *testing.T
	graph    *topo.Graph
	reports  []LinkReport
	flows    []FlowSnapshot
	budget   *power.Budget
	executed []plp.Command
	rebuilds int
}

func newFakeFabric(t *testing.T, g *topo.Graph) *fakeFabric {
	return &fakeFabric{t: t, graph: g, budget: power.NewBudget(0)}
}

func (f *fakeFabric) Reports() []LinkReport         { return f.reports }
func (f *fakeFabric) TopFlows(k int) []FlowSnapshot { return f.flows }
func (f *fakeFabric) Graph() *topo.Graph            { return f.graph }
func (f *fakeFabric) PowerBudget() *power.Budget    { return f.budget }
func (f *fakeFabric) RebuildRoutes(route.CostFunc)  { f.rebuilds++ }

func (f *fakeFabric) Execute(cmd plp.Command, done func(plp.Result)) error {
	if err := cmd.Validate(); err != nil {
		return err
	}
	f.executed = append(f.executed, cmd)
	switch cmd.Kind {
	case plp.BypassOn:
		a := topo.NodeID(cmd.Path[0])
		b := topo.NodeID(cmd.Path[len(cmd.Path)-1])
		if _, exists := f.graph.ExpressBetween(a, b); !exists {
			link, err := phy.NewLink(phy.Backplane, 2*float64(len(cmd.Path)-1), 1, 25.78125e9)
			if err != nil {
				return err
			}
			via := make([]topo.NodeID, 0, len(cmd.Path)-2)
			for _, n := range cmd.Path[1 : len(cmd.Path)-1] {
				via = append(via, topo.NodeID(n))
			}
			f.graph.AddExpress(a, b, via, link)
		}
	case plp.BypassOff:
		a := topo.NodeID(cmd.Path[0])
		b := topo.NodeID(cmd.Path[len(cmd.Path)-1])
		if e, exists := f.graph.ExpressBetween(a, b); exists {
			if err := f.graph.RemoveExpress(e); err != nil {
				return err
			}
		}
	default:
		if e, ok := f.graph.Edge(cmd.Link); ok {
			switch cmd.Kind {
			case plp.Break:
				if e.Link.ActiveLanes() > cmd.KeepLanes {
					if _, err := e.Link.SplitLanes(cmd.KeepLanes, cmd.FreedState); err != nil {
						return err
					}
				}
			case plp.Bundle:
				for _, lane := range e.Link.Lanes {
					if lane.State() != phy.LaneFailed {
						if err := lane.SetState(phy.LaneUp); err != nil {
							return err
						}
					}
				}
			case plp.LaneOff:
				if cmd.Lane >= 0 && cmd.Lane < len(e.Link.Lanes) {
					if err := e.Link.Lanes[cmd.Lane].SetState(phy.LaneOff); err != nil {
						return err
					}
				}
			case plp.LaneOn:
				if cmd.Lane >= 0 && cmd.Lane < len(e.Link.Lanes) {
					if err := e.Link.Lanes[cmd.Lane].SetState(phy.LaneUp); err != nil {
						return err
					}
				}
			}
		}
	}
	if done != nil {
		done(plp.Result{})
	}
	return nil
}

// reportAll synthesizes uniform reports for every link.
func (f *fakeFabric) reportAll(util float64, ber float64) {
	f.reports = f.reports[:0]
	for _, e := range f.graph.Edges() {
		f.reports = append(f.reports, LinkReport{
			Link:        e.Index(),
			Utilization: util,
			QueueDelay:  sim.Microsecond,
			MeasuredBER: ber,
			ActiveLanes: e.Link.ActiveLanes(),
			TotalLanes:  len(e.Link.Lanes),
			PowerW:      3.0,
			Media:       e.Link.Media,
			Up:          e.Link.Up(),
		})
	}
}

func countKind(cmds []plp.Command, k plp.Kind) int {
	n := 0
	for _, c := range cmds {
		if c.Kind == k {
			n++
		}
	}
	return n
}

func TestPriceBookOrdering(t *testing.T) {
	b := NewPriceBook(DefaultWeights(), 1.0)
	reports := []LinkReport{
		{Link: 1, Utilization: 0.1, QueueDelay: sim.Microsecond, MeasuredBER: 1e-12, Up: true},
		{Link: 2, Utilization: 0.9, QueueDelay: 50 * sim.Microsecond, MeasuredBER: 1e-12, Up: true},
		{Link: 3, Utilization: 0.1, QueueDelay: sim.Microsecond, MeasuredBER: 1e-5, Up: true},
		{Link: 4, Up: false},
	}
	b.Update(reports, nil)
	if !(b.Price(2) > b.Price(1)) {
		t.Fatal("congested link not pricier than idle link")
	}
	if !(b.Price(3) > b.Price(1)) {
		t.Fatal("unhealthy link not pricier than healthy link")
	}
	if !(b.Price(4) > b.Price(2)) {
		t.Fatal("down link must be priciest")
	}
	if b.Price(99) != 0 {
		t.Fatal("unknown link should be free")
	}
	priced := 0
	for _, e := range b.prices {
		if e != nil {
			priced++
		}
	}
	if priced != 4 {
		t.Fatal("price book size")
	}
}

func TestPriceSmoothingDampsSpikes(t *testing.T) {
	b := NewPriceBook(DefaultWeights(), 0.2)
	calm := []LinkReport{{Link: 1, Utilization: 0.1, QueueDelay: sim.Microsecond, Up: true}}
	spike := []LinkReport{{Link: 1, Utilization: 1.0, QueueDelay: 100 * sim.Microsecond, Up: true}}
	for i := 0; i < 20; i++ {
		b.Update(calm, nil)
	}
	calmPrice := b.Price(1)
	b.Update(spike, nil)
	onespike := b.Price(1)
	for i := 0; i < 20; i++ {
		b.Update(spike, nil)
	}
	sustained := b.Price(1)
	if onespike >= sustained {
		t.Fatal("one spike priced like sustained congestion")
	}
	if calmPrice >= onespike {
		t.Fatal("spike had no effect")
	}
}

func TestControllerEpochLoop(t *testing.T) {
	eng := sim.NewSized(256)
	g := topo.NewGrid(4, 4, topo.Options{})
	fab := newFakeFabric(t, g)
	fab.reportAll(0.2, 1e-13)
	cfg := DefaultConfig()
	cfg.EnableReconfig = false
	cfg.EnableBypass = false
	c := New(eng, fab, cfg)
	c.Start()
	// A turn of the ring collects one Epoch after the last actuation and
	// actuates one RingRTT later, rebuilding routes once: three and a half
	// turns hold exactly three epochs.
	period := c.Epoch() + c.RingRTT()
	if err := eng.RunUntil(sim.Time(0).Add(3*period + period/2)); err != nil {
		t.Fatal(err)
	}
	if fab.rebuilds != 3 {
		t.Fatalf("rebuilds %d over 3 epochs", fab.rebuilds)
	}
	// Epoch must respect the ring RTT floor: per-hop processing plus the
	// token's serialization, per node.
	if c.RingRTT() <= sim.Duration(16)*100*sim.Nanosecond {
		t.Fatalf("ring RTT = %v ignores token serialization", c.RingRTT())
	}
}

func TestFECPolicyEscalates(t *testing.T) {
	eng := sim.NewSized(256)
	g := topo.NewGrid(3, 3, topo.Options{})
	fab := newFakeFabric(t, g)
	fab.reportAll(0.1, 1e-5) // noisy rack
	cfg := DefaultConfig()
	cfg.EnableReconfig, cfg.EnableBypass, cfg.EnablePower, cfg.EnableRouting = false, false, false, false
	c := New(eng, fab, cfg)
	c.Start()
	if err := eng.RunUntil(sim.Time(100 * sim.Microsecond)); err != nil {
		t.Fatal(err)
	}
	nFEC := countKind(fab.executed, plp.SetFEC)
	if nFEC != len(g.Edges()) {
		t.Fatalf("SetFEC commands = %d, want one per link (%d)", nFEC, len(g.Edges()))
	}
	for _, cmd := range fab.executed {
		if cmd.Kind == plp.SetFEC && cmd.FECProfile == "none" {
			t.Fatal("noisy link left without FEC")
		}
	}
	// Stable BER must not re-issue commands forever.
	before := len(fab.executed)
	if err := eng.RunUntil(sim.Time(300 * sim.Microsecond)); err != nil {
		t.Fatal(err)
	}
	if len(fab.executed) != before {
		t.Fatalf("FEC flapping: %d new commands", len(fab.executed)-before)
	}
}

func TestPowerPolicySheds(t *testing.T) {
	eng := sim.NewSized(256)
	g := topo.NewGrid(3, 3, topo.Options{})
	fab := newFakeFabric(t, g)
	fab.budget = power.NewBudget(50)
	fab.budget.Observe(0, 80) // 30 W over
	fab.reportAll(0.1, 1e-13)
	cfg := DefaultConfig()
	cfg.EnableReconfig, cfg.EnableBypass, cfg.EnableFEC, cfg.EnableRouting = false, false, false, false
	c := New(eng, fab, cfg)
	c.Start()
	if err := eng.RunUntil(sim.Time(50 * sim.Microsecond)); err != nil {
		t.Fatal(err)
	}
	if countKind(fab.executed, plp.LaneOff) == 0 {
		t.Fatal("no lanes shed while over budget")
	}
}

func TestPowerPolicyRelights(t *testing.T) {
	eng := sim.NewSized(256)
	g := topo.NewGrid(3, 3, topo.Options{})
	// Pre-dark one lane on the hot link.
	hot := g.Edges()[0]
	if err := hot.Link.Lanes[1].SetState(phy.LaneOff); err != nil {
		t.Fatal(err)
	}
	fab := newFakeFabric(t, g)
	fab.budget = power.NewBudget(200)
	fab.budget.Observe(0, 100) // 100 W headroom
	fab.reportAll(0.2, 1e-13)
	// Make the broken link hot.
	for i := range fab.reports {
		if fab.reports[i].Link == hot.Index() {
			fab.reports[i].Utilization = 0.9
			fab.reports[i].ActiveLanes = 1
		}
	}
	cfg := DefaultConfig()
	cfg.EnableReconfig, cfg.EnableBypass, cfg.EnableFEC, cfg.EnableRouting = false, false, false, false
	c := New(eng, fab, cfg)
	c.Start()
	if err := eng.RunUntil(sim.Time(50 * sim.Microsecond)); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, cmd := range fab.executed {
		if cmd.Kind == plp.LaneOn && cmd.Link == hot.Index() {
			found = true
		}
	}
	if !found {
		t.Fatalf("hot link not re-lit: %v", fab.executed)
	}
}

func TestBypassPolicyUsesThreshold(t *testing.T) {
	eng := sim.NewSized(256)
	g := topo.NewGrid(4, 4, topo.Options{LanesPerLink: 2})
	fab := newFakeFabric(t, g)
	fab.reportAll(0.3, 1e-13)
	// One elephant far above σ*, one mouse far below.
	fab.flows = []FlowSnapshot{
		{ID: 1, Src: 0, Dst: 15, BytesRemaining: 500e6, Rate: 10e9},
		{ID: 2, Src: 1, Dst: 14, BytesRemaining: 2e3, Rate: 10e9},
	}
	cfg := DefaultConfig()
	cfg.EnableReconfig, cfg.EnableFEC, cfg.EnablePower, cfg.EnableRouting = false, false, false, false
	c := New(eng, fab, cfg)
	c.Start()
	if err := eng.RunUntil(sim.Time(50 * sim.Microsecond)); err != nil {
		t.Fatal(err)
	}
	var bypassPaths [][]int
	for _, cmd := range fab.executed {
		if cmd.Kind == plp.BypassOn {
			bypassPaths = append(bypassPaths, cmd.Path)
		}
	}
	if len(bypassPaths) != 1 {
		t.Fatalf("bypasses = %d, want exactly 1 (elephant only): %v", len(bypassPaths), bypassPaths)
	}
	p := bypassPaths[0]
	if p[0] != 0 || p[len(p)-1] != 15 {
		t.Fatalf("bypass path %v does not join the elephant's endpoints", p)
	}
	if countKind(fab.executed, plp.Break) == 0 {
		t.Fatal("bypass issued without donor breaks")
	}
}

func TestBypassReclaim(t *testing.T) {
	eng := sim.NewSized(256)
	g := topo.NewGrid(4, 4, topo.Options{LanesPerLink: 2})
	fab := newFakeFabric(t, g)
	fab.reportAll(0.3, 1e-13)
	fab.flows = []FlowSnapshot{
		{ID: 1, Src: 0, Dst: 15, BytesRemaining: 500e6, Rate: 10e9},
	}
	cfg := DefaultConfig()
	cfg.EnableReconfig, cfg.EnableFEC, cfg.EnablePower, cfg.EnableRouting = false, false, false, false
	c := New(eng, fab, cfg)
	c.Start()
	if err := eng.RunUntil(sim.Time(80 * sim.Microsecond)); err != nil {
		t.Fatal(err)
	}
	if countKind(fab.executed, plp.BypassOn) != 1 {
		t.Fatalf("bypass not built: %v", fab.executed)
	}
	if _, ok := g.ExpressBetween(0, 15); !ok {
		t.Fatal("fake fabric did not materialize the express edge")
	}

	// The elephant drains; the express channel idles.
	fab.flows = nil
	fab.reportAll(0.0, 1e-13)
	if err := eng.RunUntil(sim.Time(2 * sim.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if countKind(fab.executed, plp.BypassOff) != 1 {
		t.Fatalf("idle express not reclaimed: %v", fab.executed)
	}
	if countKind(fab.executed, plp.Bundle) == 0 {
		t.Fatal("donor links not re-bundled")
	}
	if _, ok := g.ExpressBetween(0, 15); ok {
		t.Fatal("express edge still present after reclaim")
	}
	// Donor links are restored to full width.
	for _, e := range g.Edges() {
		if e.Express {
			t.Fatal("express edge survived")
		}
		if e.Link.ActiveLanes() != 2 {
			t.Fatalf("link %d left at %d lanes", e.Index(), e.Link.ActiveLanes())
		}
	}
	// A returning elephant can get a fresh channel (the pair was cleared).
	fab.flows = []FlowSnapshot{
		{ID: 2, Src: 0, Dst: 15, BytesRemaining: 500e6, Rate: 10e9},
	}
	fab.reportAll(0.3, 1e-13)
	if err := eng.RunUntil(sim.Time(3 * sim.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if countKind(fab.executed, plp.BypassOn) != 2 {
		t.Fatal("pair not re-eligible after reclaim")
	}
}

func TestBusyBypassNotReclaimed(t *testing.T) {
	eng := sim.NewSized(256)
	g := topo.NewGrid(4, 4, topo.Options{LanesPerLink: 2})
	fab := newFakeFabric(t, g)
	fab.reportAll(0.3, 1e-13)
	fab.flows = []FlowSnapshot{
		{ID: 1, Src: 0, Dst: 15, BytesRemaining: 500e6, Rate: 10e9},
	}
	cfg := DefaultConfig()
	cfg.EnableReconfig, cfg.EnableFEC, cfg.EnablePower, cfg.EnableRouting = false, false, false, false
	c := New(eng, fab, cfg)
	c.Start()
	if err := eng.RunUntil(sim.Time(80 * sim.Microsecond)); err != nil {
		t.Fatal(err)
	}
	// Keep the channel busy: utilization stays high across many epochs.
	fab.reportAll(0.8, 1e-13)
	if err := eng.RunUntil(sim.Time(3 * sim.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if countKind(fab.executed, plp.BypassOff) != 0 {
		t.Fatal("busy express channel reclaimed")
	}
}

// TestBypassReclaimOrderIsDeterministic idles three express channels in
// the same epoch. Their BypassOff and Bundle commands, and the decision
// lines that log them, must come out in (src, dst) order on every run:
// map order would differ from run to run.
func TestBypassReclaimOrderIsDeterministic(t *testing.T) {
	run := func() []string {
		eng := sim.NewSized(256)
		g := topo.NewGrid(4, 4, topo.Options{LanesPerLink: 2})
		fab := newFakeFabric(t, g)
		fab.reportAll(0.3, 1e-13)
		// Three elephants, each along its own grid row.
		fab.flows = []FlowSnapshot{
			{ID: 1, Src: 8, Dst: 11, BytesRemaining: 500e6, Rate: 10e9},
			{ID: 2, Src: 0, Dst: 3, BytesRemaining: 500e6, Rate: 10e9},
			{ID: 3, Src: 4, Dst: 7, BytesRemaining: 500e6, Rate: 10e9},
		}
		cfg := DefaultConfig()
		cfg.EnableReconfig, cfg.EnableFEC, cfg.EnablePower, cfg.EnableRouting = false, false, false, false
		c := New(eng, fab, cfg)
		c.Start()
		if err := eng.RunUntil(sim.Time(80 * sim.Microsecond)); err != nil {
			t.Fatal(err)
		}
		if n := countKind(fab.executed, plp.BypassOn); n != 3 {
			t.Fatalf("built %d express channels, want 3: %v", n, fab.executed)
		}
		built := len(c.Decisions())

		// All three elephants drain; their channels idle together.
		fab.flows = nil
		fab.reportAll(0.0, 1e-13)
		if err := eng.RunUntil(sim.Time(2 * sim.Millisecond)); err != nil {
			t.Fatal(err)
		}
		if n := countKind(fab.executed, plp.BypassOff); n != 3 {
			t.Fatalf("reclaimed %d express channels, want 3", n)
		}
		var log []string
		for _, d := range c.Decisions()[built:] {
			log = append(log, d.String())
		}
		return log
	}

	want := run()
	var reclaimed []string
	for _, line := range want {
		if strings.Contains(line, "reclaim express") {
			reclaimed = append(reclaimed, line)
		}
	}
	if len(reclaimed) != 3 || !strings.Contains(reclaimed[0], "0→3") ||
		!strings.Contains(reclaimed[1], "4→7") || !strings.Contains(reclaimed[2], "8→11") {
		t.Fatalf("reclaims not in (src, dst) order:\n%s", strings.Join(reclaimed, "\n"))
	}
	for i := 0; i < 40; i++ {
		if got := run(); strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Fatalf("run %d logged a different reclaim order:\n%s\nwant:\n%s",
				i, strings.Join(got, "\n"), strings.Join(want, "\n"))
		}
	}
}

func TestReconfigPolicyTriggersOnUtilization(t *testing.T) {
	eng := sim.NewSized(256)
	g := topo.NewGrid(4, 4, topo.Options{LanesPerLink: 2})
	construction := len(g.Edges())
	fab := newFakeFabric(t, g)
	fab.reportAll(0.8, 1e-13) // hot rack
	cfg := DefaultConfig()
	cfg.EnableFEC, cfg.EnablePower, cfg.EnableBypass, cfg.EnableRouting = false, false, false, false
	c := New(eng, fab, cfg)
	c.Start()
	if err := eng.RunUntil(sim.Time(100 * sim.Microsecond)); err != nil {
		t.Fatal(err)
	}
	// Reconfigured: 24 links broken + 8 bypass wraps.
	if n := countKind(fab.executed, plp.Break); n != construction {
		t.Fatalf("breaks = %d", n)
	}
	if n := countKind(fab.executed, plp.BypassOn); n != 8 {
		t.Fatalf("wraps = %d", n)
	}
	// Exactly once.
	before := len(fab.executed)
	if err := eng.RunUntil(sim.Time(300 * sim.Microsecond)); err != nil {
		t.Fatal(err)
	}
	for _, cmd := range fab.executed[before:] {
		if cmd.Kind == plp.Break || cmd.Kind == plp.BypassOn {
			t.Fatal("reconfiguration re-triggered")
		}
	}
}

func TestReconfigPolicyIdleHoldsOff(t *testing.T) {
	eng := sim.NewSized(256)
	g := topo.NewGrid(4, 4, topo.Options{LanesPerLink: 2})
	fab := newFakeFabric(t, g)
	fab.reportAll(0.1, 1e-13) // idle rack
	cfg := DefaultConfig()
	cfg.EnableFEC, cfg.EnablePower, cfg.EnableBypass, cfg.EnableRouting = false, false, false, false
	c := New(eng, fab, cfg)
	c.Start()
	if err := eng.RunUntil(sim.Time(100 * sim.Microsecond)); err != nil {
		t.Fatal(err)
	}
	if n := countKind(fab.executed, plp.Break) + countKind(fab.executed, plp.BypassOn); n != 0 {
		t.Fatalf("idle grid reconfigured (%d commands)", n)
	}
}

func TestDecisionLogReadable(t *testing.T) {
	eng := sim.NewSized(256)
	g := topo.NewGrid(4, 4, topo.Options{LanesPerLink: 2})
	fab := newFakeFabric(t, g)
	fab.reportAll(0.8, 1e-13)
	c := New(eng, fab, DefaultConfig())
	c.Start()
	if err := eng.RunUntil(sim.Time(100 * sim.Microsecond)); err != nil {
		t.Fatal(err)
	}
	if len(c.Decisions()) == 0 {
		t.Fatal("no decisions logged")
	}
	joined := ""
	for _, d := range c.Decisions() {
		line := d.String()
		if line == "" {
			t.Fatal("empty decision line")
		}
		joined += line + "\n"
	}
	for _, want := range []string{"reconfig", "bypass-on", "routing"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("decision log missing %q:\n%s", want, joined)
		}
	}
}

func TestCostFuncPrefersCheapAndExpress(t *testing.T) {
	eng := sim.NewSized(256)
	g := topo.NewGrid(3, 3, topo.Options{})
	fab := newFakeFabric(t, g)
	c := New(eng, fab, DefaultConfig())
	// Price link 0 heavily.
	fab.reports = []LinkReport{
		{Link: 0, Utilization: 1.0, QueueDelay: 100 * sim.Microsecond, Up: true},
	}
	c.prices.Update(fab.reports, nil)
	cost := c.CostFunc()
	e0, _ := g.Edge(0)
	e1, _ := g.Edge(1)
	if cost(e0) <= cost(e1) {
		t.Fatal("priced link not more expensive")
	}
	// Express edges are cheaper than a switch hop.
	link, err := phy.NewLink(phy.Backplane, 4, 1, 25.78125e9)
	if err != nil {
		t.Fatal(err)
	}
	ex := g.AddExpress(0, 2, []topo.NodeID{1}, link)
	if cost(ex) >= cost(e1) {
		t.Fatalf("express hop (%v) not cheaper than switch hop (%v)", cost(ex), cost(e1))
	}
}

func TestRingRTTScalesWithRack(t *testing.T) {
	eng := sim.NewSized(256)
	small := New(eng, newFakeFabric(t, topo.NewGrid(3, 3, topo.Options{})), DefaultConfig())
	big := New(eng, newFakeFabric(t, topo.NewGrid(8, 8, topo.Options{})), DefaultConfig())
	if big.RingRTT() <= small.RingRTT() {
		t.Fatal("ring RTT must grow with rack size")
	}
	// The token carries one record per link, so RTT grows superlinearly
	// in node count: 64/9 nodes ≈ 7.1×, but RTT must exceed that ratio
	// adjusted for the larger token.
	ratio := float64(big.RingRTT()) / float64(small.RingRTT())
	if ratio <= 64.0/9.0 {
		t.Fatalf("RTT ratio %.2f does not reflect token growth", ratio)
	}
	// Sanity: a 9-node rack's control loop stays in the microsecond class.
	if small.RingRTT() > 100*sim.Microsecond {
		t.Fatalf("small ring RTT = %v implausibly slow", small.RingRTT())
	}
}
