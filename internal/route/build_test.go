package route

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"

	"rackfab/internal/heapx"
	"rackfab/internal/phy"
	"rackfab/internal/topo"
)

// referenceBuild is the table Build computed before it read an adjacency
// snapshot: one heap Dijkstra per destination that dereferences each
// *topo.Edge it relaxes, and a tie rule over g.Adjacent. It shares no code
// with Build's searches, tie masks or workers, so TestBuildMatchesReference
// and FuzzRepairBatch hold Build to it bit for bit. Only n, dist and ties
// are filled.
func referenceBuild(g *topo.Graph, cost CostFunc) *Table {
	n := g.NumNodes()
	costOf := make([]float64, g.EdgeIndexBound())
	for _, e := range g.Edges() {
		costOf[e.Index()] = cost(e)
	}
	ref := &Table{n: n, ties: make([]uint16, n*n), dist: make([]float64, n*n)}
	var pq heapx.Heap[nodeDist]
	for dst := 0; dst < n; dst++ {
		col := ref.dist[dst*n : (dst+1)*n]
		for i := range col {
			col[i] = math.Inf(1)
		}
		col[dst] = 0
		pq.Reset()
		pq.Push(nodeDist{node: topo.NodeID(dst), dist: 0})
		for pq.Len() > 0 {
			cur := pq.Pop()
			if cur.dist > col[cur.node] {
				continue // stale entry
			}
			for _, e := range g.Adjacent(cur.node) {
				c := costOf[e.Index()]
				if math.IsInf(c, 1) {
					continue
				}
				next := e.Other(cur.node)
				if nd := cur.dist + c; nd < col[next] {
					col[next] = nd
					pq.Push(nodeDist{node: next, dist: nd})
				}
			}
		}
		for from := 0; from < n; from++ {
			ref.ties[dst*n+from] = referenceTieMask(g, costOf, from, col)
		}
	}
	return ref
}

// referenceTieMask is referenceBuild's tie rule: the links of from whose
// finite cost plus the far end's distance is within 1e-9 of from's.
func referenceTieMask(g *topo.Graph, costOf []float64, from int, col []float64) uint16 {
	const eps = 1e-9
	d := col[from]
	if d == 0 || math.IsInf(d, 1) {
		return 0
	}
	var mask uint16
	for i, e := range g.Adjacent(topo.NodeID(from)) {
		c := costOf[e.Index()]
		if !math.IsInf(c, 1) && math.Abs(c+col[e.Other(topo.NodeID(from))]-d) < eps {
			mask |= 1 << i
		}
	}
	return mask
}

// expressGrid is a 9×9 grid with express links added at interior nodes,
// two of them at the centre, so that tie masks use bits 4 and 5.
func expressGrid(t *testing.T) *topo.Graph {
	g := topo.NewGrid(9, 9, topo.Options{})
	for _, ex := range [][2][2]int{{{4, 4}, {4, 0}}, {{4, 4}, {8, 4}}, {{1, 1}, {1, 7}}, {{2, 6}, {7, 6}}} {
		a, b := g.NodeAt(ex[0][0], ex[0][1]), g.NodeAt(ex[1][0], ex[1][1])
		link, err := phy.NewLink(phy.Backplane, 6, 1, 25.78125e9)
		if err != nil {
			t.Fatal(err)
		}
		g.AddExpress(a, b, nil, link)
	}
	return g
}

// TestBuildMatchesReference holds Build to referenceBuild bit for bit,
// every distance and every tie mask, across fabric shapes and costs, with
// GOMAXPROCS at 1 and at 4. Uniform and tenth costs take the FIFO search
// (tenths with sums that round), which sets the tie masks as it pops; the
// tiny (1e-10) and small (5e-10) uniform costs take it too, below
// minFusedCost, where one level lies inside the tie tolerance and tieMask
// sets the masks; priced costs take the heap; the +Inf cases cut links
// and, on the line, partition it. The 16×16 torus is
// above minParallelNodes, so at GOMAXPROCS 4 its columns are built by four
// goroutines.
func TestBuildMatchesReference(t *testing.T) {
	shapes := []struct {
		name string
		mk   func(t *testing.T) *topo.Graph
	}{
		{"grid", func(*testing.T) *topo.Graph { return topo.NewGrid(7, 5, topo.Options{}) }},
		{"torus", func(*testing.T) *topo.Graph { return topo.NewTorus(16, 16, topo.Options{}) }},
		{"line", func(*testing.T) *topo.Graph { return topo.NewLine(17, topo.Options{}) }},
		{"ring", func(*testing.T) *topo.Graph { return topo.NewRing(16, topo.Options{}) }},
		{"express", expressGrid},
	}
	priced := func(e *topo.Edge) float64 { return 1 + 0.137*float64(e.Index()%7) }
	costs := []struct {
		name string
		cost CostFunc
	}{
		{"uniform", UniformCost},
		{"uniform-cut", func(e *topo.Edge) float64 {
			if e.Index()%9 == 4 {
				return math.Inf(1)
			}
			return 1
		}},
		{"tenths", func(*topo.Edge) float64 { return 0.1 }},
		{"tiny", func(*topo.Edge) float64 { return 1e-10 }},
		{"small", func(*topo.Edge) float64 { return 5e-10 }},
		{"priced", priced},
		{"priced-cut", func(e *topo.Edge) float64 {
			if e.Index()%5 == 2 {
				return math.Inf(1)
			}
			return priced(e)
		}},
	}
	for _, procs := range []int{1, 4} {
		for _, sh := range shapes {
			for _, c := range costs {
				t.Run(fmt.Sprintf("procs%d/%s/%s", procs, sh.name, c.name), func(t *testing.T) {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
					g := sh.mk(t)
					if sh.name == "torus" && procs > 1 && buildWorkers(g.NumNodes()) != procs {
						t.Fatalf("a %d-node Build at GOMAXPROCS %d runs %d workers", g.NumNodes(), procs, buildWorkers(g.NumNodes()))
					}
					tab := Build(g, c.cost)
					tablesEqual(t, "build", referenceBuild(g, c.cost), tab)
					if sh.name == "express" && !slices.ContainsFunc(tab.ties, func(m uint16) bool { return m >= 1<<4 }) {
						t.Fatal("no tie mask uses bit 4 or above")
					}
				})
			}
		}
	}
}
