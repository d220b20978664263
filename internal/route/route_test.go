package route

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"rackfab/internal/phy"
	"rackfab/internal/topo"
)

func TestUniformHopsMatchBFS(t *testing.T) {
	g := topo.NewGrid(5, 4, topo.Options{})
	tab := Build(g, UniformCost)
	for src := 0; src < g.NumNodes(); src++ {
		hops := g.HopsFrom(topo.NodeID(src))
		for dst := 0; dst < g.NumNodes(); dst++ {
			want := float64(hops[dst])
			if got := tab.Distance(topo.NodeID(src), topo.NodeID(dst)); got != want {
				t.Fatalf("dist %d→%d = %v, want %v", src, dst, got, want)
			}
		}
	}
}

func TestPathFollowsTable(t *testing.T) {
	g := topo.NewGrid(4, 4, topo.Options{})
	tab := Build(g, UniformCost)
	src, dst := g.NodeAt(0, 0), g.NodeAt(3, 3)
	path, err := tab.Path(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	if len(path) != 6 {
		t.Fatalf("path len = %d, want 6 (Manhattan)", len(path))
	}
	// Path must be contiguous from src to dst.
	cur := src
	for _, li := range path {
		e := edgeByIndex(t, g, li)
		if !e.Touches(cur) {
			t.Fatal("discontiguous path")
		}
		cur = e.Other(cur)
	}
	if cur != dst {
		t.Fatal("path does not end at dst")
	}
}

func TestSelfAndUnreachable(t *testing.T) {
	g := topo.NewLine(3, topo.Options{})
	tab := Build(g, UniformCost)
	if _, ok := tab.NextHopECMP(1, 1, 0); ok {
		t.Fatal("self next hop")
	}
	if p, err := tab.Path(1, 1); err != nil || p != nil {
		t.Fatal("self path should be empty")
	}
	// Down the middle link: 2 becomes unreachable from 0.
	e, _ := g.EdgeBetween(1, 2)
	for _, lane := range e.Link.Lanes {
		if err := lane.SetState(phy.LaneOff); err != nil {
			t.Fatal(err)
		}
	}
	tab = Build(g, UniformCost)
	if tab.Reachable(0, 2) {
		t.Fatal("reachable across downed link")
	}
	if _, err := tab.Path(0, 2); err == nil {
		t.Fatal("path across downed link")
	}
}

func TestWeightedRoutesAvoidExpensiveLink(t *testing.T) {
	// Square: 0-1, 1-3, 0-2, 2-3. Price 0-1 heavily; 0→3 must go via 2.
	g := topo.NewGrid(2, 2, topo.Options{})
	exp, _ := g.EdgeBetween(0, 1)
	cost := func(e *topo.Edge) float64 {
		if !e.Link.Up() {
			return math.Inf(1)
		}
		if e == exp {
			return 10
		}
		return 1
	}
	tab := Build(g, cost)
	path, err := tab.Path(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, li := range path {
		if int(li) == exp.Index() {
			t.Fatal("route used the expensive link")
		}
	}
	if tab.Distance(0, 3) != 2 {
		t.Fatalf("distance = %v", tab.Distance(0, 3))
	}
}

func TestECMPSpreads(t *testing.T) {
	g := topo.NewGrid(3, 3, topo.Options{})
	tab := Build(g, UniformCost)
	src, dst := g.NodeAt(0, 0), g.NodeAt(2, 2)
	seen := map[*topo.Edge]bool{}
	for h := uint64(0); h < 64; h++ {
		e, ok := tab.NextHopECMP(src, dst, h)
		if !ok {
			t.Fatal("no ECMP hop")
		}
		seen[e] = true
	}
	// From a corner toward the opposite corner there are two equal-cost
	// first hops; hashing must use both.
	if len(seen) != 2 {
		t.Fatalf("ECMP used %d edges, want 2", len(seen))
	}
}

func TestExpressEdgeShortcut(t *testing.T) {
	g := topo.NewGrid(4, 1, topo.Options{})
	link, err := phy.NewLink(phy.Backplane, 6, 1, 25.78125e9)
	if err != nil {
		t.Fatal(err)
	}
	g.AddExpress(0, 3, []topo.NodeID{1, 2}, link)
	tab := Build(g, UniformCost)
	if d := tab.Distance(0, 3); d != 1 {
		t.Fatalf("distance with express = %v, want 1", d)
	}
	path, err := tab.Path(0, 3)
	if err != nil || len(path) != 1 || !edgeByIndex(t, g, path[0]).Express {
		t.Fatalf("path should be the express edge: %v err=%v", path, err)
	}
}

func TestNonPositiveCostPanics(t *testing.T) {
	g := topo.NewLine(2, topo.Options{})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on zero cost")
		}
	}()
	Build(g, func(e *topo.Edge) float64 { return 0 })
}

// Property: on a torus with uniform costs, table distance equals the torus
// Manhattan metric min(dx,w−dx)+min(dy,h−dy).
func TestTorusDistanceProperty(t *testing.T) {
	f := func(wRaw, hRaw, aRaw, bRaw uint8) bool {
		w := 3 + int(wRaw)%4
		h := 3 + int(hRaw)%4
		g := topo.NewTorus(w, h, topo.Options{})
		tab := Build(g, UniformCost)
		a := topo.NodeID(int(aRaw) % (w * h))
		b := topo.NodeID(int(bRaw) % (w * h))
		ca, cb := g.Coord(a), g.Coord(b)
		dx := abs(ca.X - cb.X)
		if w-dx < dx {
			dx = w - dx
		}
		dy := abs(ca.Y - cb.Y)
		if h-dy < dy {
			dy = h - dy
		}
		return tab.Distance(a, b) == float64(dx+dy)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(60))}); err != nil {
		t.Fatal(err)
	}
}

// Property: following primary next hops always terminates at the
// destination with monotonically decreasing remaining distance.
func TestNoLoopsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := topo.NewGrid(3+rng.Intn(4), 3+rng.Intn(4), topo.Options{})
		// Random positive link costs.
		costs := map[*topo.Edge]float64{}
		for _, e := range g.Edges() {
			costs[e] = 1 + rng.Float64()*9
		}
		tab := Build(g, func(e *topo.Edge) float64 { return costs[e] })
		for trial := 0; trial < 10; trial++ {
			a := topo.NodeID(rng.Intn(g.NumNodes()))
			b := topo.NodeID(rng.Intn(g.NumNodes()))
			if _, err := tab.Path(a, b); err != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(61))}); err != nil {
		t.Fatal(err)
	}
}

// edgeByIndex returns g's edge whose Index is idx, the form Path returns.
func edgeByIndex(t *testing.T, g *topo.Graph, idx int32) *topo.Edge {
	t.Helper()
	for _, e := range g.Edges() {
		if e.Index() == int(idx) {
			return e
		}
	}
	t.Fatalf("no edge with index %d", idx)
	return nil
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
