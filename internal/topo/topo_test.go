package topo

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"rackfab/internal/phy"
	"rackfab/internal/plp"
)

// Diameter returns the maximum shortest-path hop count over live edges,
// or -1 when disconnected.
func (g *Graph) Diameter() int {
	worst := 0
	for src := 0; src < g.NumNodes(); src++ {
		for _, d := range g.HopsFrom(NodeID(src)) {
			if d == -1 {
				return -1
			}
			if d > worst {
				worst = d
			}
		}
	}
	return worst
}

// Degree returns the number of live incident edges of n.
func (g *Graph) Degree(n NodeID) int {
	d := 0
	for _, e := range g.adj[n] {
		if e.Link.Up() {
			d++
		}
	}
	return d
}

func TestGridStructure(t *testing.T) {
	g := NewGrid(4, 3, Options{})
	if g.NumNodes() != 12 {
		t.Fatalf("nodes = %d", g.NumNodes())
	}
	// Grid edges: h*(w-1) horizontal + w*(h-1) vertical.
	want := 3*3 + 4*2
	if len(g.Edges()) != want {
		t.Fatalf("edges = %d, want %d", len(g.Edges()), want)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Corner degree 2, edge degree 3, interior degree 4.
	if d := g.Degree(g.NodeAt(0, 0)); d != 2 {
		t.Errorf("corner degree = %d", d)
	}
	if d := g.Degree(g.NodeAt(1, 0)); d != 3 {
		t.Errorf("border degree = %d", d)
	}
	if d := g.Degree(g.NodeAt(1, 1)); d != 4 {
		t.Errorf("interior degree = %d", d)
	}
}

func TestTorusStructure(t *testing.T) {
	g := NewTorus(4, 4, Options{})
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Torus: every node has degree 4; edges = 2*w*h.
	for n := 0; n < g.NumNodes(); n++ {
		if d := g.Degree(NodeID(n)); d != 4 {
			t.Fatalf("node %d degree = %d", n, d)
		}
	}
	if len(g.Edges()) != 2*4*4 {
		t.Fatalf("edges = %d, want 32", len(g.Edges()))
	}
	// Wrap links are physically longer (folded back across the rack).
	e, ok := g.EdgeBetween(g.NodeAt(0, 0), g.NodeAt(3, 0))
	if !ok {
		t.Fatal("missing row wrap link")
	}
	if e.Link.LengthM != 3*2.0 {
		t.Fatalf("wrap length = %v m", e.Link.LengthM)
	}
}

func TestLineAndRing(t *testing.T) {
	l := NewLine(4, Options{})
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(l.Edges()) != 3 {
		t.Fatalf("line edges = %d", len(l.Edges()))
	}
	r := NewRing(5, Options{})
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(r.Edges()) != 5 {
		t.Fatalf("ring edges = %d", len(r.Edges()))
	}
	for n := 0; n < 5; n++ {
		if r.Degree(NodeID(n)) != 2 {
			t.Fatalf("ring degree broken at %d", n)
		}
	}
}

func TestHopsManhattan(t *testing.T) {
	g := NewGrid(5, 5, Options{})
	src := g.NodeAt(0, 0)
	hops := g.HopsFrom(src)
	for y := 0; y < 5; y++ {
		for x := 0; x < 5; x++ {
			if got := hops[g.NodeAt(x, y)]; got != x+y {
				t.Fatalf("hops to (%d,%d) = %d, want %d", x, y, got, x+y)
			}
		}
	}
}

func TestTorusHopsWrap(t *testing.T) {
	g := NewTorus(6, 6, Options{})
	hops := g.HopsFrom(g.NodeAt(0, 0))
	// Torus distance is min(dx, w-dx)+min(dy, h-dy).
	if got := hops[g.NodeAt(5, 0)]; got != 1 {
		t.Fatalf("wrap neighbour hops = %d, want 1", got)
	}
	if got := hops[g.NodeAt(3, 3)]; got != 6 {
		t.Fatalf("antipode hops = %d, want 6", got)
	}
}

func TestMeanHopsTorusBeatsGrid(t *testing.T) {
	grid := NewGrid(8, 8, Options{})
	torus := NewTorus(8, 8, Options{})
	gh, err := grid.MeanHops()
	if err != nil {
		t.Fatal(err)
	}
	th, err := torus.MeanHops()
	if err != nil {
		t.Fatal(err)
	}
	if th >= gh {
		t.Fatalf("torus mean hops %v not better than grid %v", th, gh)
	}
	// Analytic means over all ordered pairs: grid (w²−1)/(3w) per axis
	// (5.25 for 8x8), torus w/4 per axis (4.0); MeanHops excludes self
	// pairs, scaling both by n²/(n²−n) = 64/63.
	if math.Abs(gh-5.25*64/63) > 0.01 {
		t.Fatalf("grid mean hops = %v, want %v", gh, 5.25*64/63)
	}
	if math.Abs(th-4.0*64/63) > 0.01 {
		t.Fatalf("torus mean hops = %v, want %v", th, 4.0*64/63)
	}
}

func TestDiameter(t *testing.T) {
	if d := NewGrid(4, 4, Options{}).Diameter(); d != 6 {
		t.Fatalf("grid diameter = %d", d)
	}
	if d := NewTorus(4, 4, Options{}).Diameter(); d != 4 {
		t.Fatalf("torus diameter = %d", d)
	}
}

func TestDisconnection(t *testing.T) {
	g := NewLine(3, Options{})
	e, _ := g.EdgeBetween(0, 1)
	for _, lane := range e.Link.Lanes {
		if err := lane.SetState(phy.LaneOff); err != nil {
			t.Fatal(err)
		}
	}
	if g.Connected() {
		t.Fatal("graph should be disconnected with a downed link")
	}
	if _, err := g.MeanHops(); err == nil {
		t.Fatal("MeanHops should fail when disconnected")
	}
	if g.Diameter() != -1 {
		t.Fatal("diameter of disconnected graph should be -1")
	}
}

func TestExpressEdges(t *testing.T) {
	g := NewGrid(4, 4, Options{})
	link, err := phy.NewLink(phy.Backplane, 6, 1, 25.78125e9)
	if err != nil {
		t.Fatal(err)
	}
	e := g.AddExpress(g.NodeAt(0, 0), g.NodeAt(3, 0), []NodeID{1, 2}, link)
	if !e.Express || len(e.Via) != 2 {
		t.Fatal("express edge malformed")
	}
	// The express edge must shrink hop counts.
	if got := g.HopsFrom(0)[g.NodeAt(3, 0)]; got != 1 {
		t.Fatalf("express hop = %d, want 1", got)
	}
	if _, ok := g.ExpressBetween(0, g.NodeAt(3, 0)); !ok {
		t.Fatal("ExpressBetween missed the edge")
	}
	// Construction edges cannot be removed.
	ce, _ := g.EdgeBetween(0, 1)
	if err := g.RemoveExpress(ce); err == nil {
		t.Fatal("removed a construction edge")
	}
	if err := g.RemoveExpress(e); err != nil {
		t.Fatal(err)
	}
	if got := g.HopsFrom(0)[g.NodeAt(3, 0)]; got != 3 {
		t.Fatalf("hops after removal = %d, want 3", got)
	}
}

func TestEdgeHelpers(t *testing.T) {
	g := NewGrid(2, 2, Options{})
	e, ok := g.EdgeBetween(0, 1)
	if !ok {
		t.Fatal("edge 0-1 missing")
	}
	if e.Other(0) != 1 || e.Other(1) != 0 {
		t.Fatal("Other broken")
	}
	if !e.Touches(0) || e.Touches(3) {
		t.Fatal("Touches broken")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Other on foreign node should panic")
		}
	}()
	e.Other(3)
}

func TestGridToTorusPlan(t *testing.T) {
	g := NewGrid(4, 4, Options{LanesPerLink: 2})
	plan, err := GridToTorusPlan(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	var breaks, bypasses int
	for _, c := range plan.Commands {
		if err := c.Validate(); err != nil {
			t.Fatalf("invalid command %v: %v", c, err)
		}
		switch c.Kind {
		case plp.Break:
			breaks++
			if c.KeepLanes != 1 || c.FreedState != phy.LaneBypassed {
				t.Fatalf("bad break %v", c)
			}
		case plp.BypassOn:
			bypasses++
			if len(c.Path) != 4 {
				t.Fatalf("bypass path %v, want length 4", c.Path)
			}
		}
	}
	// Every construction link is broken exactly once; one bypass per row
	// and per column.
	if breaks != len(g.Edges()) {
		t.Fatalf("breaks = %d, want %d", breaks, len(g.Edges()))
	}
	if bypasses != 8 {
		t.Fatalf("bypasses = %d, want 8", bypasses)
	}
}

func TestGridToTorusPlanValidation(t *testing.T) {
	if _, err := GridToTorusPlan(NewTorus(4, 4, Options{}), 1); err == nil {
		t.Error("torus accepted as source")
	}
	if _, err := GridToTorusPlan(NewGrid(2, 2, Options{}), 1); err == nil {
		t.Error("2x2 accepted")
	}
	if _, err := GridToTorusPlan(NewGrid(4, 4, Options{LanesPerLink: 2}), 2); err == nil {
		t.Error("keep=all accepted")
	}
	if _, err := GridToTorusPlan(NewGrid(4, 4, Options{Media: phy.CopperDAC}), 1); err == nil {
		t.Error("bypass-incapable media accepted")
	}
}

// Property: any grid is connected, has the analytic edge count, and every
// node's degree is within [2,4].
func TestGridInvariantsProperty(t *testing.T) {
	f := func(wRaw, hRaw uint8) bool {
		w := 2 + int(wRaw)%7
		h := 2 + int(hRaw)%7
		g := NewGrid(w, h, Options{})
		if g.Validate() != nil {
			return false
		}
		if len(g.Edges()) != h*(w-1)+w*(h-1) {
			return false
		}
		for n := 0; n < g.NumNodes(); n++ {
			d := g.Degree(NodeID(n))
			if d < 2 || d > 4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(50))}); err != nil {
		t.Fatal(err)
	}
}

// Property: torus mean hops ≤ grid mean hops for equal dimensions ≥3.
func TestTorusAlwaysBeatsGridProperty(t *testing.T) {
	f := func(wRaw, hRaw uint8) bool {
		w := 3 + int(wRaw)%5
		h := 3 + int(hRaw)%5
		gh, err1 := NewGrid(w, h, Options{}).MeanHops()
		th, err2 := NewTorus(w, h, Options{}).MeanHops()
		return err1 == nil && err2 == nil && th <= gh
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(51))}); err != nil {
		t.Fatal(err)
	}
}

func TestNodeAtBounds(t *testing.T) {
	g := NewGrid(3, 3, Options{})
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-bounds NodeAt should panic")
		}
	}()
	g.NodeAt(3, 0)
}

// TestEdgeIndexStable pins the contract flat-array solvers rely on: edge
// indexes are dense insertion-ordered at construction, express edges extend
// the sequence, and an index is never reused after RemoveExpress.
func TestEdgeIndexStable(t *testing.T) {
	g := NewTorus(4, 4, Options{})
	for i, e := range g.Edges() {
		if e.Index() != i {
			t.Fatalf("construction edge %d has index %d", i, e.Index())
		}
	}
	bound := g.EdgeIndexBound()
	if bound != len(g.Edges()) {
		t.Fatalf("bound %d != %d edges", bound, len(g.Edges()))
	}
	link, err := phy.NewLink(phy.Backplane, 2, 1, 25.78125e9)
	if err != nil {
		t.Fatal(err)
	}
	ex := g.AddExpress(0, 5, []NodeID{1}, link)
	if ex.Index() != bound {
		t.Fatalf("express edge index %d, want %d", ex.Index(), bound)
	}
	if g.EdgeIndexBound() != bound+1 {
		t.Fatalf("bound %d after express, want %d", g.EdgeIndexBound(), bound+1)
	}
	if err := g.RemoveExpress(ex); err != nil {
		t.Fatal(err)
	}
	// The removed index stays retired: the next express edge gets a fresh one.
	link2, err := phy.NewLink(phy.Backplane, 2, 1, 25.78125e9)
	if err != nil {
		t.Fatal(err)
	}
	ex2 := g.AddExpress(0, 5, []NodeID{1}, link2)
	if ex2.Index() != bound+1 {
		t.Fatalf("index %d reused after removal, want fresh %d", ex2.Index(), bound+1)
	}
	if g.EdgeIndexBound() != bound+2 {
		t.Fatalf("bound %d, want %d", g.EdgeIndexBound(), bound+2)
	}
}

// TestEdgeEnableDisable: administrative enable/disable is pure annotation —
// it must not move indexes, adjacency, edge count, or physical link state,
// and must round-trip. The stable Edge.Index space is what the fluid
// solver's flat per-link arrays are keyed on, so this is load-bearing.
func TestEdgeEnableDisable(t *testing.T) {
	g := NewGrid(3, 3, Options{})
	bound := g.EdgeIndexBound()
	edges := len(g.Edges())
	e := g.Edges()[4]
	if !e.Enabled() {
		t.Fatal("edges must start enabled")
	}
	idx := e.Index()
	e.SetEnabled(false)
	if e.Enabled() {
		t.Fatal("disable did not stick")
	}
	if e.Index() != idx {
		t.Fatalf("index moved on disable: %d → %d", idx, e.Index())
	}
	if g.EdgeIndexBound() != bound || len(g.Edges()) != edges {
		t.Fatal("disable disturbed the edge space")
	}
	if !e.Link.Up() {
		t.Fatal("disable must not touch physical link state")
	}
	found := false
	for _, adj := range g.Adjacent(e.A) {
		if adj == e {
			found = true
		}
	}
	if !found {
		t.Fatal("disabled edge dropped from adjacency")
	}
	e.SetEnabled(true)
	if !e.Enabled() {
		t.Fatal("enable did not round-trip")
	}
}
