package route

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
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

// TestPathMatchesTwoWalks holds Path and Hops, which read the distance only
// when a walk fails at its first node, to twoWalkPath and twoWalkHops on
// every pair: the same links, in an exact-size slice, and the same error.
// A 4×4 grid cut in two halves gives reachable and unreachable pairs, and
// three damaged copies of its table give the errors a built table never
// does: no next hop at the source, no next hop mid-path, and a loop. A
// 130-node line gives paths longer than Path's stack buffer, healthy and
// with a next hop missing past it.
func TestPathMatchesTwoWalks(t *testing.T) {
	grid := topo.NewGrid(4, 4, topo.Options{})
	for y := 0; y < 4; y++ {
		e, _ := grid.EdgeBetween(grid.NodeAt(1, y), grid.NodeAt(2, y))
		e.SetEnabled(false)
	}
	cut := Build(grid, UniformCost)
	to := int(grid.NodeAt(1, 3))
	src, mid := grid.NodeAt(0, 0), grid.NodeAt(0, 2)
	a, b := grid.NodeAt(0, 0), grid.NodeAt(1, 0)
	line := topo.NewLine(130, topo.Options{})
	long := Build(line, UniformCost)

	damaged := func(tab *Table, damage func(col []uint16)) *Table {
		c := *tab
		c.ties = slices.Clone(tab.ties)
		damage(c.ties[to*c.n : (to+1)*c.n])
		return &c
	}
	slot := func(g *topo.Graph, from, next topo.NodeID) uint16 {
		for i, e := range g.Adjacent(from) {
			if e.Other(from) == next {
				return 1 << i
			}
		}
		t.Fatalf("%d is no neighbour of %d", next, from)
		return 0
	}
	tables := []struct {
		name string
		tab  *Table
	}{
		{"cut", cut},
		{"no-hop-at-source", damaged(cut, func(col []uint16) { col[src] = 0 })},
		{"no-hop-mid-path", damaged(cut, func(col []uint16) { col[mid] = 0 })},
		{"loop", damaged(cut, func(col []uint16) { col[a], col[b] = slot(grid, a, b), slot(grid, b, a) })},
		{"long", long},
		// Column 13 of the line: the walks from 105 up reach node 40 past
		// the buffer.
		{"long-no-hop", damaged(long, func(col []uint16) { col[40] = 0 })},
	}
	kinds := map[string]int{}
	for _, tc := range tables {
		n := tc.tab.n
		for from := 0; from < n; from++ {
			for dst := 0; dst < n; dst++ {
				f, d := topo.NodeID(from), topo.NodeID(dst)
				want, wantErr := twoWalkPath(tc.tab, f, d)
				got, err := tc.tab.Path(f, d)
				if fmt.Sprint(err) != fmt.Sprint(wantErr) || !slices.Equal(got, want) || cap(got) != len(got) {
					t.Fatalf("%s: Path(%d, %d) = %v (cap %d), %v; want %v, %v", tc.name, f, d, got, cap(got), err, want, wantErr)
				}
				wantHops, wantErr := twoWalkHops(tc.tab, f, d)
				hops, err := tc.tab.Hops(f, d)
				if fmt.Sprint(err) != fmt.Sprint(wantErr) || hops != wantHops {
					t.Fatalf("%s: Hops(%d, %d) = %d, %v; want %d, %v", tc.name, f, d, hops, err, wantHops, wantErr)
				}
				switch {
				case err == nil:
					kinds["ok"]++
				case errors.Is(err, ErrUnreachable):
					kinds["unreachable"]++
				default:
					kinds["inconsistent"]++
				}
			}
		}
	}
	if kinds["ok"] == 0 || kinds["unreachable"] == 0 || kinds["inconsistent"] == 0 {
		t.Fatalf("outcomes %v: every kind must occur", kinds)
	}
}

// twoWalkHops is the reference for Hops: it reads the distance first,
// then counts the walk.
func twoWalkHops(t *Table, from, to topo.NodeID) (int, error) {
	if math.IsInf(t.Distance(from, to), 1) {
		return 0, fmt.Errorf("route: %d→%d: %w", from, to, ErrUnreachable)
	}
	ties := t.ties[int(to)*t.n : (int(to)+1)*t.n]
	hops := 0
	for cur := int32(from); cur != int32(to); hops++ {
		if ties[cur] == 0 {
			return 0, fmt.Errorf("route: no next hop from %d to %d", cur, to)
		}
		if hops == t.n {
			return 0, fmt.Errorf("route: loop routing %d→%d", from, to)
		}
		cur = t.adjNbr[t.primary(cur, ties)]
	}
	return hops, nil
}

// twoWalkPath is the reference for Path: twoWalkHops, then a second walk
// that fills the path.
func twoWalkPath(t *Table, from, to topo.NodeID) ([]int32, error) {
	if from == to {
		return nil, nil
	}
	hops, err := twoWalkHops(t, from, to)
	if err != nil {
		return nil, err
	}
	ties := t.ties[int(to)*t.n : (int(to)+1)*t.n]
	path := make([]int32, hops)
	cur := int32(from)
	for i := range path {
		s := t.primary(cur, ties)
		path[i], cur = t.adjEdge[s], t.adjNbr[s]
	}
	return path, nil
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
