// Package route computes fabric routing tables.
//
// The paper keeps the network layer untouched ("Backwards compatibility -
// No restructuring of the network layer is needed"): hosts still hand
// frames to their local switch, and switches forward on destination. What
// the Closed Ring Control changes is the cost each link advertises — the
// per-link price tag — and this package turns those prices into next-hop
// tables. Routing is therefore plain weighted shortest path; adaptivity
// comes entirely from re-pricing and re-building, not from a new protocol.
package route

import (
	"errors"
	"fmt"
	"math"

	"rackfab/internal/heapx"
	"rackfab/internal/topo"
)

// ErrUnreachable reports that no live path exists between two nodes — a
// genuine network condition (a partition after link or node failures), not
// a table bug. Callers distinguish it from table-inconsistency errors with
// errors.Is and decide policy: park the flow until a repair heals the
// partition, fail it, or surface the outage.
var ErrUnreachable = errors.New("route: destination unreachable")

// CostFunc prices one traversal of an edge. Costs must be positive and
// finite for usable edges; return +Inf to exclude an edge.
type CostFunc func(e *topo.Edge) float64

// UniformCost prices every live, administratively enabled edge at 1
// (minimum hop count). Disabled edges — the fault layer's link-down state —
// are excluded exactly like physically dead ones.
func UniformCost(e *topo.Edge) float64 {
	if !e.Enabled() || !e.Link.Up() {
		return math.Inf(1)
	}
	return 1
}

// Table holds next-hop routing state for every (node, destination) pair.
// Cost-tied next hops for all pairs share one backing arena addressed by
// (offset, count) per pair — a rebuild allocates a handful of flat slices
// instead of one slice header per reachable pair.
type Table struct {
	n       int
	primary []*topo.Edge // [from*n+dst] deterministic best next hop
	ecmpOff []int32      // [from*n+dst] offset of the pair's ties in arena
	ecmpCnt []int32      // [from*n+dst] number of cost-tied next hops
	arena   []*topo.Edge // concatenated tie lists
	dist    []float64    // [from*n+dst] total path cost
	costOf  []float64    // [edge index] cost snapshot of the last build/repair
}

// Build runs one backward Dijkstra per destination over the live graph and
// records, for every node, the incident edge(s) starting a minimum-cost
// path to that destination. Edge costs are evaluated once up front: a cost
// function reads live link state, and one build must see a consistent
// snapshot of it anyway.
func Build(g *topo.Graph, cost CostFunc) *Table {
	n := g.NumNodes()
	t := &Table{
		n:       n,
		primary: make([]*topo.Edge, n*n),
		ecmpOff: make([]int32, n*n),
		ecmpCnt: make([]int32, n*n),
		dist:    make([]float64, n*n),
	}
	for i := range t.dist {
		t.dist[i] = math.Inf(1)
	}
	t.costOf = make([]float64, g.EdgeIndexBound())
	for _, e := range g.Edges() {
		c := cost(e)
		if !math.IsInf(c, 1) && c <= 0 {
			panic(fmt.Sprintf("route: non-positive edge cost %v on %d-%d", c, e.A, e.B))
		}
		t.costOf[e.Index()] = c
	}
	scratch := &buildScratch{dist: make([]float64, n)}
	for dst := 0; dst < n; dst++ {
		buildForDst(g, topo.NodeID(dst), t.costOf, t, scratch)
	}
	return t
}

// Per-destination triage outcomes.
const (
	colNone = iota // untouched
	colTies        // distances survive; one endpoint's ECMP tie set changes
	colFull        // distances can move: full column rebuild
)

// columnImpact is RepairBatch's per-destination triage: how can an edge (a,b)
// whose cost moved c0 → c1 touch destination dst? Returns the impact and,
// for colTies, the node whose tie set must be re-derived. The test is O(1)
// against the stored distance matrix, which must still describe the
// table's current column when the test runs — batch callers triage a
// column against every change BEFORE mutating it.
func (t *Table) columnImpact(dst, a, b int, c0, c1 float64) (int, int) {
	const eps = 1e-9
	n := t.n
	da, db := t.dist[a*n+dst], t.dist[b*n+dst]
	if !math.IsInf(c0, 1) && !math.IsInf(da, 1) && !math.IsInf(db, 1) {
		gap, hiNode := da-db, a
		if gap < 0 {
			gap, hiNode = -gap, b
		}
		if math.Abs(gap-c0) < eps { // the edge was on dst's shortest-path DAG
			if c1 < c0 {
				return colFull, 0 // cheaper edge on the DAG: strictly shorter paths
			}
			// Increase or removal: the edge leaves the far endpoint's tie
			// set. Distances survive iff a cost-tied alternative remains.
			if t.ecmpCnt[hiNode*n+dst] >= 2 {
				return colTies, hiNode
			}
			return colFull, 0
		}
	}
	if !math.IsInf(c1, 1) {
		lo, hi, hiNode := da, db, b
		if lo > hi {
			lo, hi, hiNode = hi, lo, a
		}
		if !math.IsInf(lo, 1) {
			// hi may be +Inf (connectivity restored): strictly shorter.
			if c1+lo < hi-eps {
				return colFull, 0
			}
			if c1+lo <= hi+eps {
				return colTies, hiNode // newly cost-tied next hop
			}
		}
	}
	return colNone, 0
}

// scrubRow re-derives the ECMP tie set of one (from, dst) pair against the
// stored (unchanged) distance column and current cost snapshot, walking
// g.Adjacent in the same order buildForDst does so the resulting list is
// bit-identical to a fresh build's. The list shrinks in place; growth
// appends a fresh arena segment. Returns true when the row emptied — the
// signal that the triage's distance-survival assumption broke (every tie
// of a reachable pair vanished) and the caller must fall back to a full
// column rebuild.
func (t *Table) scrubRow(g *topo.Graph, from, dst int) bool {
	const eps = 1e-9
	n := t.n
	idx := from*n + dst
	dv := t.dist[idx]
	if from == dst || math.IsInf(dv, 1) {
		return false
	}
	adj := g.Adjacent(topo.NodeID(from))
	tied := func(e *topo.Edge) bool {
		c := t.costOf[e.Index()]
		if math.IsInf(c, 1) {
			return false
		}
		return math.Abs(c+t.dist[int(e.Other(topo.NodeID(from)))*n+dst]-dv) < eps
	}
	newCnt := int32(0)
	for _, e := range adj {
		if tied(e) {
			newCnt++
		}
	}
	if newCnt == 0 {
		t.primary[idx] = nil
		t.ecmpCnt[idx] = 0
		return true
	}
	off := t.ecmpOff[idx]
	if newCnt > t.ecmpCnt[idx] {
		off = int32(len(t.arena))
		t.arena = append(t.arena, make([]*topo.Edge, newCnt)...)
		t.ecmpOff[idx] = off
	}
	w := off
	for _, e := range adj {
		if tied(e) {
			t.arena[w] = e
			w++
		}
	}
	t.ecmpCnt[idx] = newCnt
	t.primary[idx] = t.arena[off]
	return false
}

// RepairBatch updates the table in place after one or more simultaneous
// edge-cost changes (a link failed, recovered, or was re-priced; a node
// event's incident links; a multi-link pulse), re-running Dijkstra only
// for the destination columns whose shortest-path *distances* the changes
// can move. All cost snapshots move first, then every destination column
// is triaged once against every change, using the pre-batch distance
// matrix throughout. The triage distinguishes three impacts per
// destination:
//
//   - none: no changed edge was on the column's shortest-path DAG and the
//     new costs create no shorter or tied path — untouched.
//   - ties only: distances provably survive, only ECMP tie sets at edge
//     endpoints change — a cost increase removing one of ≥2 cost-tied
//     next hops, or a decrease landing exactly on the current shortest
//     cost. Each touched tie list is re-derived in place against the
//     unchanged distance column (in the same adjacency order buildForDst
//     uses, so the row stays bit-identical to a fresh build); no Dijkstra
//     runs.
//   - full: distances can move (the sole shortest path died, a strictly
//     shorter path appeared, reachability was restored) — one buildForDst
//     over the final cost snapshot, bit-identical to a fresh Build.
//
// On fabrics with equal-cost path diversity (tori, wide grids) most
// affected columns are ties-only, cutting a repair from ~k Dijkstra runs
// to k row scrubs — the ~n-fold cut BenchmarkRouteRebuild's repair arm
// measures.
//
// The result is bit-identical in routing behavior to a chain of one-edge
// batches in any order. Sketch: each one-edge repair keeps the table
// equivalent to a fresh Build, so a column neither repair touches has
// unchanged distances — the batch triage sees exactly the values each
// sequential triage would, and a column any single-edge test flags is
// rebuilt here over the union of changes, which is where the sequential
// chain also lands it. Columns the chain rebuilds more than once collapse
// to one buildForDst over the same final snapshot.
//
// Rebuilt columns and grown tie lists append fresh segments to the shared
// arena; the old segments are orphaned, so a table repaired thousands of
// times grows its arena — rebuild from scratch if repair churn ever
// dominates. Returns the number of destination columns fully rebuilt, at
// most once each, so the count can undercut the sequential sum (ties-only
// scrubs are not counted: no column was rebuilt).
func (t *Table) RepairBatch(g *topo.Graph, cost CostFunc, edges []*topo.Edge) int {
	if cost == nil {
		cost = UniformCost
	}
	type change struct {
		a, b   int
		c0, c1 float64
	}
	changes := make([]change, 0, len(edges))
	for _, e := range edges {
		c1 := cost(e)
		if !math.IsInf(c1, 1) && c1 <= 0 {
			panic(fmt.Sprintf("route: non-positive edge cost %v on %d-%d", c1, e.A, e.B))
		}
		c0 := t.costOf[e.Index()]
		if c1 == c0 {
			continue // also drops duplicate edges: the second sees c0 == c1
		}
		t.costOf[e.Index()] = c1
		changes = append(changes, change{a: int(e.A), b: int(e.B), c0: c0, c1: c1})
	}
	if len(changes) == 0 {
		return 0
	}
	n := t.n
	scratch := &buildScratch{dist: make([]float64, n)}
	rebuilt := 0
	var rows []int // ties-only rows of the current column, deduplicated
	for dst := 0; dst < n; dst++ {
		// Triage this column against every change before mutating it: a
		// column's own distances are exactly the pre-batch ones until its
		// scrub/rebuild below, and no other column's repair touches them.
		impact := colNone
		rows = rows[:0]
		for _, ch := range changes {
			imp, row := t.columnImpact(dst, ch.a, ch.b, ch.c0, ch.c1)
			if imp == colFull {
				impact = colFull
				break
			}
			if imp == colTies {
				impact = colTies
				dup := false
				for _, r := range rows {
					dup = dup || r == row
				}
				if !dup {
					rows = append(rows, row)
				}
			}
		}
		if impact == colTies {
			// Scrub each touched row once over the final costs. A row that
			// empties means the changes composed into a distance move no
			// single-edge test could see (e.g. both ties of a node dying in
			// one batch) — escalate to a full rebuild.
			for _, row := range rows {
				if t.scrubRow(g, row, dst) {
					impact = colFull
					break
				}
			}
		}
		if impact == colFull {
			buildForDst(g, topo.NodeID(dst), t.costOf, t, scratch)
			rebuilt++
		}
	}
	return rebuilt
}

// buildScratch is per-destination working memory reused across the n
// Dijkstra passes of one Build. The frontier is a heapx heap rather than
// container/heap: the interface{} boxing there allocated on every push,
// which dominated Build's allocation profile at rack scale.
type buildScratch struct {
	dist []float64
	pq   heapx.Heap[nodeDist]
}

// buildForDst fills column dst of the table.
func buildForDst(g *topo.Graph, dst topo.NodeID, costOf []float64, t *Table, s *buildScratch) {
	n := g.NumNodes()
	dist := s.dist
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[dst] = 0
	pq := &s.pq
	pq.Reset()
	pq.Push(nodeDist{node: dst, dist: 0})
	for pq.Len() > 0 {
		cur := pq.Pop()
		if cur.dist > dist[cur.node] {
			continue // stale entry
		}
		for _, e := range g.Adjacent(cur.node) {
			c := costOf[e.Index()]
			if math.IsInf(c, 1) {
				continue
			}
			next := e.Other(cur.node)
			if nd := cur.dist + c; nd < dist[next] {
				dist[next] = nd
				pq.Push(nodeDist{node: next, dist: nd})
			}
		}
	}
	// Record next hops: from every node, the edges that step onto a
	// shortest path toward dst.
	const eps = 1e-9
	for from := 0; from < n; from++ {
		idx := from*n + int(dst)
		t.dist[idx] = dist[from]
		// Clear before recording: on a repair rebuild a pair that became
		// unreachable must not keep the stale pre-failure next hop.
		t.primary[idx] = nil
		t.ecmpOff[idx] = 0
		t.ecmpCnt[idx] = 0
		if topo.NodeID(from) == dst || math.IsInf(dist[from], 1) {
			continue
		}
		off := int32(len(t.arena))
		for _, e := range g.Adjacent(topo.NodeID(from)) {
			c := costOf[e.Index()]
			if math.IsInf(c, 1) {
				continue
			}
			if math.Abs(c+dist[e.Other(topo.NodeID(from))]-dist[from]) < eps {
				t.arena = append(t.arena, e)
			}
		}
		cnt := int32(len(t.arena)) - off
		if cnt == 0 {
			continue
		}
		t.primary[idx] = t.arena[off]
		t.ecmpOff[idx] = off
		t.ecmpCnt[idx] = cnt
	}
}

// NextHop returns the deterministic best next-hop edge from from toward to.
// ok is false for self-delivery or unreachable destinations — including
// pairs partitioned by a failure and repaired into the table afterwards
// (buildForDst clears the stale hop rather than leaving the dead edge).
func (t *Table) NextHop(from, to topo.NodeID) (*topo.Edge, bool) {
	if from == to {
		return nil, false
	}
	e := t.primary[int(from)*t.n+int(to)]
	return e, e != nil
}

// NextHopECMP hash-spreads over all cost-tied next hops so distinct flows
// between the same pair take distinct equal-cost paths.
func (t *Table) NextHopECMP(from, to topo.NodeID, flowHash uint64) (*topo.Edge, bool) {
	if from == to {
		return nil, false
	}
	idx := int(from)*t.n + int(to)
	cnt := t.ecmpCnt[idx]
	if cnt == 0 {
		return nil, false
	}
	return t.arena[uint64(t.ecmpOff[idx])+flowHash%uint64(cnt)], true
}

// Distance returns the total path cost from from to to (+Inf when
// unreachable, 0 for self).
func (t *Table) Distance(from, to topo.NodeID) float64 {
	return t.dist[int(from)*t.n+int(to)]
}

// Reachable reports whether to can be reached from from.
func (t *Table) Reachable(from, to topo.NodeID) bool {
	return !math.IsInf(t.Distance(from, to), 1)
}

// Path materializes the primary path as an edge list. An unreachable
// destination — a genuine partition — returns an error wrapping
// ErrUnreachable (never a zero-value path); any other error means the
// table is inconsistent (a routing loop), which would indicate a build bug
// rather than a network condition.
func (t *Table) Path(from, to topo.NodeID) ([]*topo.Edge, error) {
	if from == to {
		return nil, nil
	}
	if math.IsInf(t.Distance(from, to), 1) {
		return nil, fmt.Errorf("route: %d→%d: %w", from, to, ErrUnreachable)
	}
	var path []*topo.Edge
	cur := from
	for cur != to {
		e, ok := t.NextHop(cur, to)
		if !ok {
			return nil, fmt.Errorf("route: no next hop from %d to %d", cur, to)
		}
		path = append(path, e)
		cur = e.Other(cur)
		if len(path) > t.n {
			return nil, fmt.Errorf("route: loop routing %d→%d", from, to)
		}
	}
	return path, nil
}

// nodeDist is a priority-queue entry.
type nodeDist struct {
	node topo.NodeID
	dist float64
}

// Before orders the Dijkstra frontier by tentative distance. Stale entries
// make exact ties harmless here: both pop, the second is skipped.
func (d nodeDist) Before(other nodeDist) bool { return d.dist < other.dist }
