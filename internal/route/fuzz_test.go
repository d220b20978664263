package route

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"rackfab/internal/topo"
)

// FuzzRepairBatch builds a table, demands it equal referenceBuild, drives
// it through fuzzer-chosen batches of edge-cost changes and, after every
// batch, demands it equal a fresh Build over the same costs: every
// distance bit for bit and every tie mask. It also demands that
// RepairBatch count exactly the columns whose distances the batch moved. A
// batch moves 1–4 edges up, down (finite to smaller finite included), to
// +Inf or back from it, so it reaches each pass of the incremental column
// repair, on fractional costs as well as whole ones, and on costs whose
// path sums round as well as exact ones.
//
// Input layout: shape picks a grid, torus, line or ring and size its
// dimensions; prices[i mod len(prices)] prices edge i at build; ops is a
// run of batches, each a count byte (1 + b mod 4 edges) followed by that
// many (edge, price) byte pairs. fuzzPrice maps a price byte to a cost.
// The committed corpus under testdata/fuzz/FuzzRepairBatch keeps a
// partition and heal, a node loss, a decrease onto a tied cost, a restore
// from +Inf, a rise behind a fall and a pair of changes on tenths in every
// plain `go test` run; `go test -run xxx -fuzz FuzzRepairBatch
// ./internal/route/` explores further.
func FuzzRepairBatch(f *testing.F) {
	f.Add(uint8(0), uint8(5), []byte{3}, []byte{0, 4, 0xff, 0, 4, 3})
	f.Add(uint8(1), uint8(4), []byte{3, 1, 7, 0}, []byte{3, 0, 2, 1, 9, 2, 0xff, 3, 5, 1, 8, 0, 1})
	f.Fuzz(func(t *testing.T, shape, size uint8, prices, ops []byte) {
		g := fuzzGraph(shape, size)
		edges := g.Edges()
		cost := make([]float64, g.EdgeIndexBound())
		for i, e := range edges {
			p := byte(3)
			if len(prices) > 0 {
				p = prices[i%len(prices)]
			}
			cost[e.Index()] = fuzzPrice(p)
		}
		costFn := func(e *topo.Edge) float64 { return cost[e.Index()] }
		tab := Build(g, costFn)
		tablesEqual(t, fmt.Sprintf("%s build", g.Kind()), referenceBuild(g, costFn), tab)
		var batch []*topo.Edge
		for step := 0; len(ops) >= 3 && step < 64; step++ {
			k := 1 + int(ops[0])%4
			ops = ops[1:]
			batch = batch[:0]
			for ; k > 0 && len(ops) >= 2; k-- {
				e := edges[int(ops[0])%len(edges)]
				cost[e.Index()] = fuzzPrice(ops[1])
				batch = append(batch, e)
				ops = ops[2:]
			}
			before := slices.Clone(tab.dist)
			cols := tab.RepairBatch(g, costFn, batch)
			label := fmt.Sprintf("%s batch %d", g.Kind(), step)
			tablesEqual(t, label, Build(g, costFn), tab)
			if want := movedColumns(before, tab); cols != want {
				t.Fatalf("%s: RepairBatch counted %d columns, %d moved", label, cols, want)
			}
		}
	})
}

// fuzzGraph builds FuzzRepairBatch's fabric: a grid of 2–5 × 2–5 nodes, a
// torus of 3–5 × 3–5, a line of 2–17 or a ring of 3–16.
func fuzzGraph(shape, size uint8) *topo.Graph {
	switch shape % 4 {
	case 0:
		return topo.NewGrid(2+int(size)%4, 2+int(size/4)%4, topo.Options{})
	case 1:
		return topo.NewTorus(3+int(size)%3, 3+int(size/4)%3, topo.Options{})
	case 2:
		return topo.NewLine(2+int(size)%16, topo.Options{})
	default:
		return topo.NewRing(3+int(size)%14, topo.Options{})
	}
}

// fuzzPrice maps a price byte to an edge cost: a multiple of 1/4 in
// [0.25, 4] below 0x80 (3 is 1, 7 is 2), a multiple of 1/10 in [0.1, 3.2]
// from 0x80 (0x83 is 0.4), and +Inf from 0xf0. Quarters keep every path
// sum exact in float64, so two paths tie exactly or differ by at least
// 1/4. Tenths round the way CRC prices do: two paths of one length can sum
// a few ulps apart, and a repaired column matches Build only if it lands
// on the exact fixed point. The corpus entries found before tenths were
// mapped use only bytes below 0x80 and from 0xf0, so they replay the costs
// they were found with.
func fuzzPrice(b byte) float64 {
	switch {
	case b >= 0xf0:
		return math.Inf(1)
	case b >= 0x80:
		return float64(1+b%32) / 10
	}
	return float64(1+b%16) / 4
}

// movedColumns counts the destination columns whose distances differ
// between before, a copy of tab.dist, and tab.
func movedColumns(before []float64, tab *Table) int {
	moved := 0
	for dst := 0; dst < tab.n; dst++ {
		lo, hi := dst*tab.n, (dst+1)*tab.n
		if !slices.Equal(before[lo:hi], tab.dist[lo:hi]) {
			moved++
		}
	}
	return moved
}
