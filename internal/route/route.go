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
	"math/bits"

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

// UniformCost prices every live edge (topo.Edge.Live) at 1 (minimum hop
// count). Disabled edges — the fault layer's link-down state — are
// excluded exactly like physically dead ones.
func UniformCost(e *topo.Edge) float64 {
	if !e.Live() {
		return math.Inf(1)
	}
	return 1
}

// MaxDegree is the most links a node may have: a pair's cost-tied next
// hops are a 16-bit mask over the node's adjacency list.
const MaxDegree = 16

// Table holds next-hop routing state for every (node, destination) pair,
// laid out as one contiguous column per destination. ties[dst*n+from] is a
// bitmask over positions in g.Adjacent(from): bit i set means
// g.Adjacent(from)[i] starts a minimum-cost path to dst, and the lowest set
// bit is the deterministic primary next hop. dist[dst*n+from] is the total
// path cost. Build allocates both once and RepairBatch rewrites them in
// place, so a table's bytes depend on the graph's shape alone, not on its
// repair history, and it holds no pointer the GC must scan per pair. Build
// also sizes the repair scratch below by n (the change list grows to the
// largest batch), so a warmed RepairBatch allocates nothing.
//
// Build records the graph's adjacency once, as flat per-slot arrays that
// every search, tie and path loop reads: node v's links are the slots
// adjOff[v] up to adjOff[v+1], in g.Adjacent(v) order, so bit i of v's tie
// mask names slot adjOff[v]+i. A table is valid only while its graph's
// adjacency is unchanged. Adjacency changes only in topo.Graph.AddExpress
// and RemoveExpress, and every caller of those rebuilds the table with
// Build before the next lookup.
type Table struct {
	g      *topo.Graph
	n      int
	ties   []uint16  // [dst*n+from] cost-tied next hops over g.Adjacent(from)
	dist   []float64 // [dst*n+from] total path cost
	costOf []float64 // [edge index] cost snapshot of the last build/repair

	adjOff  []int32   // [node] first slot; adjOff[n] is the slot count
	adjNbr  []int32   // [slot] the node the link leads to
	adjEdge []int32   // [slot] the link's edge index
	adjCost []float64 // [slot] costOf[adjEdge[slot]], so the loops read a cost in one load

	// Repair scratch. mark and rowMark are per-node stamps relative to
	// epoch, which advances once per repaired column, so no column clears
	// them.
	changes []costChange // the batch's edges whose cost moved
	moved   []int        // nodes whose distance repairColumn rewrote
	mark    []uint32     // [node] repairColumn's verdict: epoch+markKeep/Lost/Lowered
	rowMark []uint32     // [node] epoch once the column's tie mask is re-derived
	epoch   uint32
	pq      heapx.Heap[nodeDist]
}

// costChange is one edge whose cost moved c0 → c1 in a repair batch.
type costChange struct {
	a, b   int
	c0, c1 float64
}

// setCost records c as edge e's cost, in costOf and in the snapshot slot
// that holds e at each endpoint.
func (t *Table) setCost(e *topo.Edge, c float64) {
	t.costOf[e.Index()] = c
	for _, v := range [2]topo.NodeID{e.A, e.B} {
		for s := t.adjOff[v]; s < t.adjOff[v+1]; s++ {
			if t.adjEdge[s] == int32(e.Index()) {
				t.adjCost[s] = c
			}
		}
	}
}

// tieEps is the tie rule's tolerance: a link ties when its cost plus the
// far end's distance is within tieEps of the near end's.
const tieEps = 1e-9

// tieMask is the tie rule: the mask of from's links that start a
// minimum-cost path to the destination whose distance column is col, under
// the cost snapshot. The destination itself (distance 0) and unreachable
// nodes have no ties; an +Inf cost or neighbour distance makes the sum
// +Inf, never a tie. It derives the masks of a heap-searched column and
// of a column below minFusedCost (Build), and those repairColumn
// re-derives; a FIFO search from minFusedCost up sets the same masks as it
// pops.
func (t *Table) tieMask(from int, col []float64) uint16 {
	d := col[from]
	if d == 0 || math.IsInf(d, 1) {
		return 0
	}
	var mask uint16
	lo, hi := t.adjOff[from], t.adjOff[from+1]
	nbr, cost := t.adjNbr[lo:hi], t.adjCost[lo:hi]
	cost = cost[:len(nbr)]
	for i, w := range nbr {
		if isTie(cost[i], col[w], d) {
			mask |= 1 << i
		}
	}
	return mask
}

// isTie is tieMask's rule for one link: whether cost c to a neighbour at
// distance far lands within tieEps of distance near.
func isTie(c, far, near float64) bool { return math.Abs(c+far-near) < tieEps }

// RepairBatch updates the table in place after one or more simultaneous
// edge-cost changes (a link failed, recovered or was re-priced, a node
// event's incident links, a multi-link pulse), leaving it equal to a fresh
// Build over the new costs bit for bit. All cost snapshots move first;
// then every destination column that touched flags goes through
// repairColumn. Costs are positive and dist+c > dist holds in float64 for
// every distance and cost a table sees, so a column's distances are the
// unique fixed point of dist[v] = min over links (v,u) of dist[u]+c, with
// dist[dst] = 0: the point Build's search reaches and repairColumn
// restores. Tie masks are a function of the distances and costs, so they
// follow. Every write lands in the table's fixed-size arrays, so repair
// never grows it. g must be the graph the table was built over, with its
// adjacency unchanged. Returns the number of destination columns whose
// distances moved.
func (t *Table) RepairBatch(g *topo.Graph, cost CostFunc, edges []*topo.Edge) int {
	if cost == nil {
		cost = UniformCost
	}
	t.changes = t.changes[:0]
	for _, e := range edges {
		c1 := cost(e)
		if !math.IsInf(c1, 1) && c1 <= 0 {
			panic(fmt.Sprintf("route: non-positive edge cost %v on %d-%d", c1, e.A, e.B))
		}
		c0 := t.costOf[e.Index()]
		if c1 == c0 {
			continue // also drops duplicate edges: the second sees c0 == c1
		}
		t.setCost(e, c1)
		t.changes = append(t.changes, costChange{a: int(e.A), b: int(e.B), c0: c0, c1: c1})
	}
	if len(t.changes) == 0 {
		return 0
	}
	cols := 0
	for dst := 0; dst < t.n; dst++ {
		if t.touched(dst) && t.repairColumn(dst) {
			cols++
		}
	}
	return cols
}

// touched is RepairBatch's prefilter: whether a change of the batch can
// move dst's distances or tie masks, judged against the column's distances
// before the batch. A changed link can move them only if it was on the
// column's shortest-path DAG (its old cost spans its endpoints' distance
// gap) or if its new cost ties or beats the farther endpoint's distance
// from the nearer one. Both tests allow tieMask's 1e-9 tolerance, so they
// can send repairColumn a column it leaves as it was, but never miss one
// it would change.
func (t *Table) touched(dst int) bool {
	col := t.dist[dst*t.n : (dst+1)*t.n]
	for _, ch := range t.changes {
		lo, hi := col[ch.a], col[ch.b]
		if lo > hi {
			lo, hi = hi, lo
		}
		if math.IsInf(lo, 1) {
			continue // neither endpoint reaches dst
		}
		if math.Abs(hi-lo-ch.c0) < tieEps || ch.c1+lo <= hi+tieEps {
			return true
		}
	}
	return false
}

// Verdicts repairColumn stamps into Table.mark, as offsets from the
// column's epoch. A node without a stamp keeps its distance.
const (
	markKeep    = iota // an unchanged neighbour still witnesses its distance
	markLost           // its distance lost every witness: reset and re-derived
	markLowered        // its distance fell in the Dijkstra pass
	markSpan           // epoch advance per column
)

// repairColumn rewrites dst's column, which must hold the distances of the
// costs before t.changes, into the fixed point of the costs after them,
// touching only the nodes whose distance moves (Ramalingam–Reps):
//
//  1. Starting from each endpoint that an edge whose cost rose exactly
//     witnessed, and in ascending old distance, collect the nodes left
//     with no exact witness: a neighbour u, itself not collected, over a
//     finite-cost link, with dist[u]+c == dist[v]. A witness is strictly
//     nearer than the node it witnesses, so each node's witnesses are
//     settled before it is examined, and a collected node puts every
//     farther neighbour up for examination.
//  2. Reset the collected nodes to +Inf and seed each with its best
//     uncollected neighbour; relax the links whose cost fell; then run
//     Dijkstra from the seeds, over the nodes whose distance improves.
//     Every value written is the length of a real path, and every link
//     ends relaxed, so the column lands on the unique fixed point: the one
//     a fresh Build computes.
//  3. Re-derive the tie masks that can change: those of nodes whose
//     distance was rewritten, of their neighbours, and of each changed
//     link's endpoints where the link was or becomes a tie.
//
// It reports whether any distance moved, which is just when it rewrote
// one. An uncollected node the Dijkstra pass lowers ends strictly below
// its old distance. If there is none, the collected node that ends
// nearest takes its distance from an unmoved, uncollected neighbour, which
// would have witnessed it had that distance come back unchanged.
func (t *Table) repairColumn(dst int) bool {
	off := dst * t.n
	col := t.dist[off : off+t.n]
	if t.epoch > math.MaxUint32-2*markSpan {
		clear(t.mark)
		clear(t.rowMark)
		t.epoch = 0
	}
	t.epoch += markSpan
	keep, lost, lowered := t.epoch+markKeep, t.epoch+markLost, t.epoch+markLowered

	// Pass 1: collect the nodes whose distance lost every witness.
	t.moved = t.moved[:0]
	t.pq.Reset()
	for _, ch := range t.changes {
		if ch.c1 > ch.c0 {
			t.pushWitnessed(ch.a, ch.b, ch.c0, col)
			t.pushWitnessed(ch.b, ch.a, ch.c0, col)
		}
	}
	for t.pq.Len() > 0 {
		cur := t.pq.Pop()
		v := int(cur.node)
		if t.mark[v] == keep || t.mark[v] == lost {
			continue // queued twice
		}
		if t.witnessed(v, col, lost) {
			t.mark[v] = keep
			continue
		}
		t.mark[v] = lost
		t.moved = append(t.moved, v)
		for _, w := range t.adjNbr[t.adjOff[v]:t.adjOff[v+1]] {
			if col[w] > cur.dist {
				t.pushFinite(int(w), col)
			}
		}
	}

	// Pass 2: re-derive the collected nodes and relax the cheaper links.
	for _, v := range t.moved {
		col[v] = math.Inf(1)
	}
	for _, v := range t.moved {
		best := math.Inf(1)
		for s := t.adjOff[v]; s < t.adjOff[v+1]; s++ {
			u := t.adjNbr[s]
			if d := col[u] + t.adjCost[s]; t.mark[u] != lost && d < best {
				best = d
			}
		}
		if !math.IsInf(best, 1) {
			col[v] = best
			t.pq.Push(nodeDist{node: topo.NodeID(v), dist: best})
		}
	}
	for _, ch := range t.changes {
		if ch.c1 < ch.c0 {
			t.lower(ch.b, col[ch.a]+ch.c1, col, lost, lowered)
			t.lower(ch.a, col[ch.b]+ch.c1, col, lost, lowered)
		}
	}
	for t.pq.Len() > 0 {
		cur := t.pq.Pop()
		if cur.dist > col[cur.node] {
			continue // stale entry
		}
		for s := t.adjOff[cur.node]; s < t.adjOff[cur.node+1]; s++ {
			t.lower(int(t.adjNbr[s]), cur.dist+t.adjCost[s], col, lost, lowered)
		}
	}

	// Pass 3: re-derive the tie masks the moves and cost changes can reach.
	ties := t.ties[off : off+t.n]
	for _, v := range t.moved {
		t.retie(v, col, ties)
		for _, w := range t.adjNbr[t.adjOff[v]:t.adjOff[v+1]] {
			t.retie(int(w), col, ties)
		}
	}
	for _, ch := range t.changes {
		t.retieEnd(ch.a, ch.b, ch, col, ties)
		t.retieEnd(ch.b, ch.a, ch, col, ties)
	}
	return len(t.moved) > 0
}

// pushWitnessed queues end for repairColumn's first pass if the link from
// it to other, at its old cost c0, was an exact witness of its distance:
// only then can the link's rise leave end without one.
func (t *Table) pushWitnessed(end, other int, c0 float64, col []float64) {
	if col[other]+c0 == col[end] {
		t.pushFinite(end, col)
	}
}

// pushFinite queues v for repairColumn's first pass, keyed by its old
// distance. The destination (0) and unreachable nodes have no witness to
// lose.
func (t *Table) pushFinite(v int, col []float64) {
	if d := col[v]; d != 0 && !math.IsInf(d, 1) {
		t.pq.Push(nodeDist{node: topo.NodeID(v), dist: d})
	}
}

// witnessed reports whether a neighbour of v not stamped lost reaches v's
// (finite) distance exactly, hence over a finite-cost link.
func (t *Table) witnessed(v int, col []float64, lost uint32) bool {
	for s := t.adjOff[v]; s < t.adjOff[v+1]; s++ {
		u := t.adjNbr[s]
		if t.mark[u] != lost && col[u]+t.adjCost[s] == col[v] {
			return true
		}
	}
	return false
}

// lower relaxes v to distance d if that is shorter, recording v as moved
// and queueing it for repairColumn's Dijkstra pass.
func (t *Table) lower(v int, d float64, col []float64, lost, lowered uint32) {
	if d >= col[v] {
		return
	}
	col[v] = d
	if t.mark[v] != lost && t.mark[v] != lowered {
		t.mark[v] = lowered
		t.moved = append(t.moved, v)
	}
	t.pq.Push(nodeDist{node: topo.NodeID(v), dist: d})
}

// retieEnd re-derives the tie mask of end, an endpoint of the changed link
// ch whose other endpoint is other, if the link was or becomes a tie there.
// If end is not yet re-derived, neither its distance nor any neighbour's
// moved, so the link's own bit is the only one the change can flip.
func (t *Table) retieEnd(end, other int, ch costChange, col []float64, ties []uint16) {
	if isTie(ch.c0, col[other], col[end]) || isTie(ch.c1, col[other], col[end]) {
		t.retie(end, col, ties)
	}
}

// retie re-derives v's tie mask in the column being repaired, once per
// column.
func (t *Table) retie(v int, col []float64, ties []uint16) {
	if t.rowMark[v] != t.epoch {
		t.rowMark[v] = t.epoch
		ties[v] = t.tieMask(v, col)
	}
}

// NextHopECMP hash-spreads over all cost-tied next hops so distinct flows
// between the same pair take distinct equal-cost paths: it returns the
// (flowHash mod ties)-th tied link in adjacency order. ok is false for
// self-delivery or unreachable destinations — including pairs partitioned
// by a failure and repaired into the table afterwards.
func (t *Table) NextHopECMP(from, to topo.NodeID, flowHash uint64) (*topo.Edge, bool) {
	mask := t.ties[int(to)*t.n+int(from)]
	if mask == 0 {
		return nil, false
	}
	for k := flowHash % uint64(bits.OnesCount16(mask)); k > 0; k-- {
		mask &= mask - 1 // drop the lowest tie
	}
	return t.g.Adjacent(from)[bits.TrailingZeros16(mask)], true
}

// Distance returns the total path cost from from to to (+Inf when
// unreachable, 0 for self).
func (t *Table) Distance(from, to topo.NodeID) float64 {
	return t.dist[int(to)*t.n+int(from)]
}

// Reachable reports whether to can be reached from from.
func (t *Table) Reachable(from, to topo.NodeID) bool {
	return !math.IsInf(t.Distance(from, to), 1)
}

// Path returns the primary path's links, as edge indices (topo.Edge.Index)
// in one exact-size slice. An unreachable destination — a genuine
// partition — returns an error wrapping ErrUnreachable (never a zero-value
// path); any other error means the table is inconsistent (a routing loop),
// which would indicate a build bug rather than a network condition. A path
// of up to pathBuf links takes one walk of the tie column, into a stack
// buffer; a longer one is counted by Hops first.
func (t *Table) Path(from, to topo.NodeID) ([]int32, error) {
	if from == to {
		return nil, nil
	}
	ties := t.ties[int(to)*t.n : (int(to)+1)*t.n]
	var buf [pathBuf]int32
	n, cur := 0, int32(from)
	for ; cur != int32(to) && n < len(buf); n++ {
		if ties[cur] == 0 {
			return nil, t.noHop(from, to, cur)
		}
		if n == t.n {
			return nil, fmt.Errorf("route: loop routing %d→%d", from, to)
		}
		s := t.primary(cur, ties)
		buf[n], cur = t.adjEdge[s], t.adjNbr[s]
	}
	hops := n
	if cur != int32(to) {
		var err error
		if hops, err = t.Hops(from, to); err != nil {
			return nil, err
		}
	}
	path := make([]int32, hops)
	copy(path, buf[:n])
	for i := n; i < hops; i++ {
		s := t.primary(cur, ties)
		path[i], cur = t.adjEdge[s], t.adjNbr[s]
	}
	return path, nil
}

// pathBuf is the longest path Path walks only once: a 32×32 grid's
// diameter is 62 links.
const pathBuf = 64

// Hops returns the number of links on the primary path, walking it as Path
// does without building it, with Path's errors. Unlike the distance, the
// count does not depend on the link prices.
func (t *Table) Hops(from, to topo.NodeID) (int, error) {
	ties := t.ties[int(to)*t.n : (int(to)+1)*t.n]
	hops := 0
	for cur := int32(from); cur != int32(to); hops++ {
		if ties[cur] == 0 {
			return 0, t.noHop(from, to, cur)
		}
		if hops == t.n {
			return 0, fmt.Errorf("route: loop routing %d→%d", from, to)
		}
		cur = t.adjNbr[t.primary(cur, ties)]
	}
	return hops, nil
}

// noHop is the error of a walk from from to to that found no next hop at
// cur. At the walk's first node it reads the distance: every node with a
// tie has a finite one, so an infinite distance there is a partition, not
// an inconsistent table.
func (t *Table) noHop(from, to topo.NodeID, cur int32) error {
	if cur == int32(from) && math.IsInf(t.Distance(from, to), 1) {
		return fmt.Errorf("route: %d→%d: %w", from, to, ErrUnreachable)
	}
	return fmt.Errorf("route: no next hop from %d to %d", cur, to)
}

// primary returns the snapshot slot of v's primary next hop in the tie
// column ties, which must hold a tie for v.
func (t *Table) primary(v int32, ties []uint16) int32 {
	return t.adjOff[v] + int32(bits.TrailingZeros16(ties[v]))
}

// nodeDist is a priority-queue entry.
type nodeDist struct {
	node topo.NodeID
	dist float64
}

// Before orders the Dijkstra frontier by tentative distance. Stale entries
// make exact ties harmless here: both pop, the second is skipped.
func (d nodeDist) Before(other nodeDist) bool { return d.dist < other.dist }
