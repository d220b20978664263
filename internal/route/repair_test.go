package route

import (
	"errors"
	"runtime"
	"testing"

	"rackfab/internal/sim"
	"rackfab/internal/topo"
)

// tablesEqual asserts got routes identically to want over the same graph:
// same distances and same tie masks, hence the same primary and ECMP next
// hops.
func tablesEqual(t *testing.T, label string, want, got *Table) {
	t.Helper()
	if want.n != got.n {
		t.Fatalf("%s: n %d vs %d", label, want.n, got.n)
	}
	n := want.n
	for dst := 0; dst < n; dst++ {
		for from := 0; from < n; from++ {
			idx := dst*n + from
			if dw, dg := want.dist[idx], got.dist[idx]; dw != dg {
				t.Fatalf("%s: dist %d→%d = %v, want %v", label, from, dst, dg, dw)
			}
			if mw, mg := want.ties[idx], got.ties[idx]; mw != mg {
				t.Fatalf("%s: ties %d→%d = %016b, want %016b", label, from, dst, mg, mw)
			}
		}
	}
}

// TestRepairMatchesFullBuild drives a table through a deterministic
// disable/enable churn on three fabric shapes and, after every one-edge
// RepairBatch, demands the repaired table be indistinguishable from a from-scratch
// Build over the same live topology — distances and full tie masks. This
// is the incremental-repair correctness gate.
func TestRepairMatchesFullBuild(t *testing.T) {
	shapes := []struct {
		name string
		g    *topo.Graph
	}{
		{"grid", topo.NewGrid(5, 4, topo.Options{})},
		{"torus", topo.NewTorus(4, 4, topo.Options{})},
		{"line", topo.NewLine(9, topo.Options{})},
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			g := sh.g
			tab := Build(g, UniformCost)
			rng := sim.NewRNG(int64(len(sh.name)))
			edges := g.Edges()
			rebuiltTotal := 0
			for step := 0; step < 30; step++ {
				e := edges[rng.Intn(len(edges))]
				e.SetEnabled(!e.Enabled()) // toggle: downs and restores interleave
				rebuiltTotal += tab.RepairBatch(g, UniformCost, []*topo.Edge{e})
				tablesEqual(t, sh.name, Build(g, UniformCost), tab)
			}
			if rebuiltTotal == 0 {
				t.Fatal("repair churn rebuilt nothing — the triage test is inert")
			}
			for _, e := range edges {
				e.SetEnabled(true)
			}
		})
	}
}

// TestRepairNoopOnUnchangedCost: repairing an edge whose cost did not move
// rebuilds nothing.
func TestRepairNoopOnUnchangedCost(t *testing.T) {
	g := topo.NewGrid(4, 4, topo.Options{})
	tab := Build(g, UniformCost)
	if n := tab.RepairBatch(g, UniformCost, []*topo.Edge{g.Edges()[3]}); n != 0 {
		t.Fatalf("no-op repair rebuilt %d columns", n)
	}
}

// TestPathUnreachableTyped is the partition regression: after a cut splits
// a 4×4 grid, Path across the cut must return the typed ErrUnreachable —
// never a zero-value path — NextHopECMP must report no hop for any hash (no
// stale pre-failure edge), and healing the cut must restore both. Exercised
// through RepairBatch, the path the fault subsystem takes.
func TestPathUnreachableTyped(t *testing.T) {
	g := topo.NewGrid(4, 4, topo.Options{})
	tab := Build(g, UniformCost)
	// Cut every edge between column 1 and column 2.
	var cut []*topo.Edge
	for y := 0; y < 4; y++ {
		e, ok := g.EdgeBetween(g.NodeAt(1, y), g.NodeAt(2, y))
		if !ok {
			t.Fatalf("missing edge at row %d", y)
		}
		cut = append(cut, e)
	}
	for _, e := range cut {
		e.SetEnabled(false)
		tab.RepairBatch(g, UniformCost, []*topo.Edge{e})
	}
	src, dst := g.NodeAt(0, 0), g.NodeAt(3, 3)
	p, err := tab.Path(src, dst)
	if !errors.Is(err, ErrUnreachable) {
		t.Fatalf("Path across the partition: path=%v err=%v, want ErrUnreachable", p, err)
	}
	if p != nil {
		t.Fatalf("Path returned a non-nil path %v alongside the error", p)
	}
	for h := uint64(0); h < 4; h++ {
		if hop, ok := tab.NextHopECMP(src, dst, h); ok {
			t.Fatalf("NextHopECMP across the partition returned stale edge %v-%v", hop.A, hop.B)
		}
	}
	if tab.Reachable(src, dst) {
		t.Fatal("Reachable across the partition")
	}
	// Same-side traffic is untouched.
	if _, err := tab.Path(g.NodeAt(0, 0), g.NodeAt(1, 3)); err != nil {
		t.Fatalf("same-side path broke: %v", err)
	}
	// Heal one cut edge: the partition closes and Path works again.
	cut[2].SetEnabled(true)
	tab.RepairBatch(g, UniformCost, []*topo.Edge{cut[2]})
	if _, err := tab.Path(src, dst); err != nil {
		t.Fatalf("path after heal: %v", err)
	}
	tablesEqual(t, "healed", Build(g, UniformCost), tab)
	for _, e := range cut {
		e.SetEnabled(true)
	}
}

// TestRepairBatchMatchesSequential is the batch-repair bit-equality gate:
// for multi-edge events (a node loss lowered to its incident links, a
// scattered multi-link pulse, a heal), applying all administrative changes
// and then calling RepairBatch once must leave a table routing-identical to
// a chain of one-edge batches — and to a from-scratch Build — on every
// fabric shape. The batch may rebuild fewer columns (it never rebuilds one
// twice) but never more than the sequential sum.
func TestRepairBatchMatchesSequential(t *testing.T) {
	type scenario struct {
		name  string
		edges func(g *topo.Graph) []*topo.Edge // edges whose admin state flips
	}
	nodeEdges := func(g *topo.Graph, n topo.NodeID) []*topo.Edge {
		return append([]*topo.Edge(nil), g.Adjacent(n)...)
	}
	scenarios := []scenario{
		{"single-edge", func(g *topo.Graph) []*topo.Edge { return g.Edges()[:1] }},
		{"node-loss", func(g *topo.Graph) []*topo.Edge { return nodeEdges(g, topo.NodeID(g.NumNodes()/2)) }},
		{"scattered-pulse", func(g *topo.Graph) []*topo.Edge {
			es := g.Edges()
			return []*topo.Edge{es[0], es[len(es)/2], es[len(es)-1]}
		}},
	}
	shapes := []struct {
		name string
		mk   func() *topo.Graph
	}{
		{"grid", func() *topo.Graph { return topo.NewGrid(5, 4, topo.Options{}) }},
		{"torus", func() *topo.Graph { return topo.NewTorus(4, 4, topo.Options{}) }},
		{"line", func() *topo.Graph { return topo.NewLine(9, topo.Options{}) }},
	}
	for _, sh := range shapes {
		for _, sc := range scenarios {
			t.Run(sh.name+"/"+sc.name, func(t *testing.T) {
				g := sh.mk()
				seq := Build(g, UniformCost)
				batch := Build(g, UniformCost)
				set := sc.edges(g)
				// Down pulse, then heal — the restore direction exercises
				// the newly-tied-path branch of the triage.
				for _, phase := range []bool{false, true} {
					for _, e := range set {
						e.SetEnabled(phase)
					}
					seqCols := 0
					for _, e := range set {
						seqCols += seq.RepairBatch(g, UniformCost, []*topo.Edge{e})
					}
					batchCols := batch.RepairBatch(g, UniformCost, set)
					if batchCols > seqCols {
						t.Fatalf("batch rebuilt %d columns, sequential only %d", batchCols, seqCols)
					}
					tablesEqual(t, "batch vs sequential", seq, batch)
					tablesEqual(t, "batch vs fresh build", Build(g, UniformCost), batch)
				}
			})
		}
	}
}

// TestRepairBatchNoop: a batch whose edges' costs did not move — including
// duplicate edges — rebuilds nothing.
func TestRepairBatchNoop(t *testing.T) {
	g := topo.NewGrid(4, 4, topo.Options{})
	tab := Build(g, UniformCost)
	e := g.Edges()[3]
	if n := tab.RepairBatch(g, UniformCost, []*topo.Edge{e, e}); n != 0 {
		t.Fatalf("no-op batch rebuilt %d columns", n)
	}
	// A duplicated changed edge counts once: the second occurrence sees the
	// already-updated snapshot.
	e.SetEnabled(false)
	once := Build(g, UniformCost)
	for _, x := range g.Edges() {
		x.SetEnabled(true)
	}
	e.SetEnabled(false)
	if tab.RepairBatch(g, UniformCost, []*topo.Edge{e, e}) == 0 {
		t.Fatal("disabling a live edge rebuilt nothing")
	}
	tablesEqual(t, "dup edge", once, tab)
	e.SetEnabled(true)
}

// TestRepairTriageIsSelective: an edge that sits on no destination's
// shortest-path DAG (priced far above the alternatives) must trigger zero
// column rebuilds when it fails, and zero again when it recovers at the
// same unattractive price — the triage is genuinely incremental, not a
// full rebuild in disguise. A uniform-cost contrast on a line shows the
// other extreme: an end edge is on every DAG, so all columns rebuild.
func TestRepairTriageIsSelective(t *testing.T) {
	g := topo.NewGrid(4, 4, topo.Options{})
	pricey, _ := g.EdgeBetween(g.NodeAt(1, 1), g.NodeAt(2, 1))
	cost := func(e *topo.Edge) float64 {
		c := UniformCost(e)
		if e == pricey {
			c *= 100
		}
		return c
	}
	tab := Build(g, cost)
	pricey.SetEnabled(false)
	if n := tab.RepairBatch(g, cost, []*topo.Edge{pricey}); n != 0 {
		t.Fatalf("failing an off-DAG edge rebuilt %d columns, want 0", n)
	}
	tablesEqual(t, "down", Build(g, cost), tab)
	pricey.SetEnabled(true)
	if n := tab.RepairBatch(g, cost, []*topo.Edge{pricey}); n != 0 {
		t.Fatalf("restoring an unattractive edge rebuilt %d columns, want 0", n)
	}
	tablesEqual(t, "up", Build(g, cost), tab)

	line := topo.NewLine(16, topo.Options{})
	ltab := Build(line, UniformCost)
	end, _ := line.EdgeBetween(0, 1)
	end.SetEnabled(false)
	if n := ltab.RepairBatch(line, UniformCost, []*topo.Edge{end}); n != line.NumNodes() {
		t.Fatalf("end-edge cut rebuilt %d of %d columns", n, line.NumNodes())
	}
	tablesEqual(t, "line", Build(line, UniformCost), ltab)
	end.SetEnabled(true)
}

// TestRepairTieScrubAvoidsRebuild: on a symmetric fabric most columns see a
// failed edge only through their ECMP tie sets — their distances survive, so
// the triage must scrub those rows in place instead of re-running Dijkstra.
// The rebuilt-column count must stay strictly below the number of columns
// whose shortest-path DAG references the edge at all (what a
// reference-counting triage rebuilds), in both the failure and the restore
// direction, while the table stays bit-identical to a fresh Build.
func TestRepairTieScrubAvoidsRebuild(t *testing.T) {
	g := topo.NewTorus(8, 8, topo.Options{})
	tab := Build(g, UniformCost)
	e := g.Edges()[0]
	n := g.NumNodes()

	// Columns whose shortest-path DAG references e: a tie at either
	// endpoint (the primary is the lowest tie).
	referenced := 0
	for dst := 0; dst < n; dst++ {
		hit := false
		for _, from := range []topo.NodeID{e.A, e.B} {
			for i, x := range g.Adjacent(from) {
				hit = hit || (x == e && tab.ties[dst*n+int(from)]&(1<<i) != 0)
			}
		}
		if hit {
			referenced++
		}
	}
	if referenced < 4 {
		t.Fatalf("edge referenced by only %d columns — torus symmetry broken?", referenced)
	}

	e.SetEnabled(false)
	down := tab.RepairBatch(g, UniformCost, []*topo.Edge{e})
	if down == 0 {
		t.Fatal("endpoint columns lost their only 1-hop path yet nothing rebuilt")
	}
	if down >= referenced {
		t.Fatalf("failure rebuilt %d of %d referencing columns — tie scrub never engaged", down, referenced)
	}
	tablesEqual(t, "down", Build(g, UniformCost), tab)

	e.SetEnabled(true)
	up := tab.RepairBatch(g, UniformCost, []*topo.Edge{e})
	if up == 0 || up >= referenced {
		t.Fatalf("restore rebuilt %d of %d referencing columns", up, referenced)
	}
	tablesEqual(t, "up", Build(g, UniformCost), tab)
}

// TestRepairRetainsNoMemory: a rebuilt column overwrites itself, so a
// table's bytes depend on the node count alone, not on how many repairs it
// has seen. 400 single-link down/up flaps on an 8×8 grid must leave the
// live heap where the warm-up left it.
func TestRepairRetainsNoMemory(t *testing.T) {
	g := topo.NewGrid(8, 8, topo.Options{})
	tab := Build(g, UniformCost)
	edges := g.Edges()
	flap := func(i int) {
		e := edges[i%len(edges)]
		e.SetEnabled(false)
		tab.RepairBatch(g, UniformCost, []*topo.Edge{e})
		e.SetEnabled(true)
		tab.RepairBatch(g, UniformCost, []*topo.Edge{e})
	}
	heap := func() int64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	for i := 0; i < 10; i++ {
		flap(i)
	}
	before := heap()
	for i := 0; i < 400; i++ {
		flap(i)
	}
	grown := heap() - before
	runtime.KeepAlive(tab)
	if grown >= 512<<10 {
		t.Fatalf("400 flaps grew the live heap by %d KB, want < 512 KB", grown>>10)
	}
	tablesEqual(t, "after flaps", Build(g, UniformCost), tab)
}

// TestRepairAllocatesNothing: a warmed RepairBatch runs its triage, tie
// scrubs and column repairs on scratch the table already holds, so it
// allocates nothing. Each run loses a torus node and a single link and
// brings both back: column repairs and tie scrubs in both directions.
func TestRepairAllocatesNothing(t *testing.T) {
	g := topo.NewTorus(8, 8, topo.Options{})
	tab := Build(g, UniformCost)
	node := append([]*topo.Edge(nil), g.Adjacent(9)...)
	link := g.Edges()[40:41]
	repaired := 0
	flap := func() {
		for _, batch := range [][]*topo.Edge{node, link} {
			for _, up := range []bool{false, true} {
				for _, e := range batch {
					e.SetEnabled(up)
				}
				repaired += tab.RepairBatch(g, UniformCost, batch)
			}
		}
	}
	flap()
	if repaired == 0 {
		t.Fatal("the flaps repaired no column")
	}
	if allocs := testing.AllocsPerRun(20, flap); allocs != 0 {
		t.Fatalf("a warmed repair allocates %.0f objects per flap cycle, want 0", allocs)
	}
	tablesEqual(t, "after flaps", Build(g, UniformCost), tab)
}
