package route

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"rackfab/internal/heapx"
	"rackfab/internal/topo"
)

// minParallelNodes is the smallest fabric whose Build spreads its columns
// over goroutines: below it, starting and joining a worker costs more than
// it saves. Two workers against one on a 2-vCPU Xeon VM (UniformCost,
// median of 5): a 4×4 grid 15.5 against 10.9 µs, 6×6 60 against 49 µs,
// 8×8 121 against 149 µs. Priced builds cross over at the same size.
// BENCH_engine.json records the runs from 4×4 to 32×32.
const minParallelNodes = 64

// Build runs one backward shortest-path search per destination over the
// live graph and records, for every node, the incident edge(s) starting a
// minimum-cost path to that destination. Edge costs are evaluated once up
// front: a cost function reads live link state, and one build must see a
// consistent snapshot of it anyway. Build panics if a node has more than
// MaxDegree links, a state only a bug can reach.
//
// When every finite cost is equal (UniformCost, or any uniform price), each
// search pops a FIFO queue, which is already in distance order, and sets
// each node's tie mask as it pops it; otherwise it pops a binary heap and
// tieMask derives the column's masks afterwards. Either reaches the unique
// fixed point RepairBatch describes, under tieMask's tie rule, so the table
// is the same bit for bit. The columns are split into contiguous ranges
// over GOMAXPROCS goroutines, each with its own queue or heap and writing
// only its own columns, and all of them join before Build returns, so the
// table is the same at any worker count.
func Build(g *topo.Graph, cost CostFunc) *Table {
	n := g.NumNodes()
	t := &Table{
		g:       g,
		n:       n,
		ties:    make([]uint16, n*n),
		dist:    make([]float64, n*n),
		costOf:  make([]float64, g.EdgeIndexBound()),
		moved:   make([]int, 0, n),
		mark:    make([]uint32, n),
		rowMark: make([]uint32, n),
	}
	t.snapshot(g)
	step := t.price(g, cost)
	t.pq.Grow(n)
	workers := buildWorkers(n)
	if workers == 1 {
		t.buildColumns(0, n, step, &t.pq) // no goroutine, no escaping WaitGroup
		return t
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var pq heapx.Heap[nodeDist]
			if step == 0 {
				pq.Grow(n)
			}
			t.buildColumns(w*n/workers, (w+1)*n/workers, step, &pq)
		}()
	}
	t.buildColumns(0, n/workers, step, &t.pq)
	wg.Wait()
	return t
}

// buildWorkers is the number of goroutines Build spreads n columns over:
// GOMAXPROCS, or one below minParallelNodes.
func buildWorkers(n int) int {
	if n < minParallelNodes {
		return 1
	}
	return runtime.GOMAXPROCS(0)
}

// snapshot records every node's links once, in g.Adjacent order, as
// exact-size per-slot arrays, and checks MaxDegree on the way.
func (t *Table) snapshot(g *topo.Graph) {
	slots := 0
	for v := 0; v < t.n; v++ {
		d := len(g.Adjacent(topo.NodeID(v)))
		if d > MaxDegree {
			panic(fmt.Sprintf("route: node %d has %d links, more than MaxDegree %d", v, d, MaxDegree))
		}
		slots += d
	}
	t.adjOff = make([]int32, t.n+1)
	t.adjNbr = make([]int32, slots)
	t.adjEdge = make([]int32, slots)
	t.adjCost = make([]float64, slots)
	s := 0
	for v := 0; v < t.n; v++ {
		for _, e := range g.Adjacent(topo.NodeID(v)) {
			t.adjNbr[s] = int32(e.Other(topo.NodeID(v)))
			t.adjEdge[s] = int32(e.Index())
			s++
		}
		t.adjOff[v+1] = int32(s)
	}
}

// price fills the cost snapshot, costOf and its per-slot copy, and returns
// its one finite cost when every finite cost is equal, the condition for a
// FIFO search: +Inf when no cost is finite, 0 when two costs differ.
func (t *Table) price(g *topo.Graph, cost CostFunc) float64 {
	uniform, first := true, math.Inf(1)
	for _, e := range g.Edges() {
		c := cost(e)
		if !math.IsInf(c, 1) && c <= 0 {
			panic(fmt.Sprintf("route: non-positive edge cost %v on %d-%d", c, e.A, e.B))
		}
		t.costOf[e.Index()] = c
		switch {
		case math.IsInf(c, 1):
		case math.IsInf(first, 1):
			first = c
		case c != first:
			uniform = false
		}
	}
	for s, e := range t.adjEdge {
		t.adjCost[s] = t.costOf[e]
	}
	if !uniform {
		return 0
	}
	return first
}

// minFusedCost is the smallest uniform cost whose FIFO search sets each
// node's tie mask as it pops it. A link to a node one level nearer ties
// exactly at any cost. A link to a node on the same level or farther sits
// about one or two costs off the tie, which from minFusedCost up is clear
// of tieMask's tolerance, so the exact test in searchFIFO gives tieMask's
// masks. Below it, one level can fall inside the tolerance, and the column
// takes tieMask's pass.
const minFusedCost = 2 * tieEps

// buildColumns searches destinations lo..hi-1 into their distance and tie
// columns, which must be Build's fresh zeroes. step is price's result: a
// FIFO search when it is positive, the heap otherwise. tieMask derives the
// masks of a heap column, and of a FIFO column whose cost is below
// minFusedCost. A FIFO search holds each node at most once, so its queue
// is one n-entry slice reused across the range.
func (t *Table) buildColumns(lo, hi int, step float64, pq *heapx.Heap[nodeDist]) {
	var queue []int32
	if step > 0 {
		queue = make([]int32, 0, t.n)
	}
	for dst := lo; dst < hi; dst++ {
		col := t.dist[dst*t.n : (dst+1)*t.n]
		ties := t.ties[dst*t.n : (dst+1)*t.n]
		for i := range col {
			col[i] = math.Inf(1)
		}
		col[dst] = 0
		if step > 0 {
			t.searchFIFO(dst, col, ties, queue)
		} else {
			t.searchHeap(dst, col, pq)
		}
		if step < minFusedCost {
			for from := range ties {
				ties[from] = t.tieMask(from, col)
			}
		}
	}
}

// searchFIFO is the column search when every finite cost is one value c.
// A node first reached at hop k holds the k-fold sum of c, and those sums
// grow with k, so the queue pops nodes in distance order and a node's
// first value is final: each node enters the queue at most once. An +Inf
// cost makes the sum +Inf, which never relaxes.
//
// When a node pops, its distance and those of every node one level nearer
// are final, and each of those holds the same sum, so a link to one of
// them is a tie exactly when c plus the far distance equals the node's.
// The loop sets the node's tie mask from the values it loads to relax its
// links; a node never popped is unreachable and keeps its zero mask.
func (t *Table) searchFIFO(dst int, col []float64, ties []uint16, queue []int32) {
	queue = append(queue[:0], int32(dst))
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		du := col[u]
		lo, hi := t.adjOff[u], t.adjOff[u+1]
		nbr, cost := t.adjNbr[lo:hi], t.adjCost[lo:hi]
		cost = cost[:len(nbr)]
		var mask uint16
		for i, v := range nbr {
			c, dv := cost[i], col[v]
			if c+dv == du {
				mask |= 1 << i
			} else if d := du + c; d < dv {
				col[v] = d
				queue = append(queue, v)
			}
		}
		ties[u] = mask
	}
}

// searchHeap is Dijkstra over a binary heap reused across columns. The
// heap is a heapx heap rather than container/heap: the interface{} boxing
// there allocated on every push, which dominated Build's allocation
// profile at rack scale.
func (t *Table) searchHeap(dst int, col []float64, pq *heapx.Heap[nodeDist]) {
	pq.Reset()
	pq.Push(nodeDist{node: topo.NodeID(dst), dist: 0})
	for pq.Len() > 0 {
		cur := pq.Pop()
		if cur.dist > col[cur.node] {
			continue // stale entry
		}
		lo, hi := t.adjOff[cur.node], t.adjOff[cur.node+1]
		nbr, cost := t.adjNbr[lo:hi], t.adjCost[lo:hi]
		cost = cost[:len(nbr)]
		for i, v := range nbr {
			if d := cur.dist + cost[i]; d < col[v] {
				col[v] = d
				pq.Push(nodeDist{node: topo.NodeID(v), dist: d})
			}
		}
	}
}
