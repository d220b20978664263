package route

import (
	"math/rand"
	"testing"
	"testing/quick"

	"rackfab/internal/topo"
)

func TestVLBIntermediateExcludesEndpoints(t *testing.T) {
	g := topo.NewTorus(4, 4, topo.Options{})
	tab := Build(g, UniformCost)
	for hash := uint64(0); hash < 64; hash++ {
		mid := tab.VLBPivot(0, 5, hash)
		if mid == 0 || mid == 5 {
			t.Fatalf("pivot %d collides with endpoints (hash %d)", mid, hash)
		}
	}
}

func TestVLBPhaseTransition(t *testing.T) {
	g := topo.NewTorus(4, 4, topo.Options{})
	tab := Build(g, UniformCost)
	src, dst := topo.NodeID(0), topo.NodeID(15)
	hash := uint64(7)
	mid := tab.VLBPivot(src, dst, hash)

	// Before the pivot: target is the pivot, phase stays 1.
	target, p2 := tab.VLBTarget(src, src, dst, hash, false)
	if target != mid || p2 {
		t.Fatalf("phase 1 target = %d (phase2=%v), want pivot %d", target, p2, mid)
	}
	// On the pivot: flip to phase 2.
	target, p2 = tab.VLBTarget(src, mid, dst, hash, false)
	if target != dst || !p2 {
		t.Fatalf("pivot target = %d (phase2=%v), want dst", target, p2)
	}
	// Past the pivot: phase 2 is sticky even if the path re-crosses nodes
	// near the pivot.
	target, p2 = tab.VLBTarget(src, src, dst, hash, true)
	if target != dst || !p2 {
		t.Fatal("phase 2 not sticky")
	}
}

// walkVLB follows VLB next hops with the per-frame phase bit, returning
// the visited node count (or -1 on a loop).
func walkVLB(tab *Table, src, dst topo.NodeID, hash uint64, n int) int {
	cur := src
	phase2 := false
	steps := 0
	for cur != dst {
		e, p2, ok := tab.VLBNextHop(src, cur, dst, hash, phase2)
		if !ok {
			return -1
		}
		phase2 = p2
		cur = e.Other(cur)
		steps++
		if steps > 2*n {
			return -1
		}
	}
	return steps
}

func TestVLBDeliversEverywhere(t *testing.T) {
	g := topo.NewTorus(5, 5, topo.Options{})
	tab := Build(g, UniformCost)
	for src := 0; src < g.NumNodes(); src++ {
		for dst := 0; dst < g.NumNodes(); dst++ {
			if src == dst {
				continue
			}
			steps := walkVLB(tab, topo.NodeID(src), topo.NodeID(dst), uint64(src*31+dst), g.NumNodes())
			if steps < 0 {
				t.Fatalf("VLB failed to deliver %d→%d", src, dst)
			}
		}
	}
}

func TestVLBPathMatchesTwoLegs(t *testing.T) {
	g := topo.NewTorus(4, 4, topo.Options{})
	tab := Build(g, UniformCost)
	src, dst := topo.NodeID(1), topo.NodeID(14)
	hash := uint64(99)
	mid := tab.VLBPivot(src, dst, hash)
	steps := walkVLB(tab, src, dst, hash, g.NumNodes())
	want := int(tab.Distance(src, mid) + tab.Distance(mid, dst))
	if steps != want {
		t.Fatalf("VLB walk = %d hops, want %d (via pivot %d)", steps, want, mid)
	}
}

func TestVLBSpreadsAdversarialLoad(t *testing.T) {
	// Neighbour-shift permutation on a ring-like torus row: shortest-path
	// routing sends every flow over distinct single links (trivial), but a
	// column-shift permutation on a grid concentrates; use the grid.
	g := topo.NewGrid(6, 6, topo.Options{})
	tab := Build(g, UniformCost)

	// Adversarial matrix: every node in row 0 sends to the same column's
	// row 5 — all shortest paths descend the columns; fine. Concentrate
	// harder: all nodes send to node 35's quadrant via a fixed pattern.
	type edgeCount map[*topo.Edge]int
	countLoad := func(useVLB bool) (int, edgeCount) {
		load := edgeCount{}
		for srcRaw := 0; srcRaw < g.NumNodes(); srcRaw++ {
			src := topo.NodeID(srcRaw)
			dst := topo.NodeID(35)
			if src == dst {
				continue
			}
			hash := uint64(srcRaw)*2654435761 + 12345
			cur := src
			phase2 := false
			for cur != dst {
				var e *topo.Edge
				var ok bool
				if useVLB {
					e, phase2, ok = tab.VLBNextHop(src, cur, dst, hash, phase2)
				} else {
					e, ok = tab.NextHopECMP(cur, dst, hash)
				}
				if !ok {
					t.Fatal("no route")
				}
				load[e]++
				cur = e.Other(cur)
			}
		}
		max := 0
		for _, c := range load {
			if c > max {
				max = c
			}
		}
		return max, load
	}
	spMax, _ := countLoad(false)
	vlbMax, _ := countLoad(true)
	// Incast concentrates at the destination either way; VLB must not be
	// *worse* at the hot edge and must spread the interior.
	if vlbMax > spMax {
		t.Fatalf("VLB max edge load %d exceeds shortest-path %d", vlbMax, spMax)
	}
}

// Property: VLB always delivers within Distance(src,mid)+Distance(mid,dst)
// hops on a connected torus. Delivery may come earlier: a phase-1 leg can
// pass through the destination, and switches deliver on sight.
func TestVLBDeliveryProperty(t *testing.T) {
	g := topo.NewTorus(4, 4, topo.Options{})
	tab := Build(g, UniformCost)
	f := func(srcRaw, dstRaw uint8, hash uint64) bool {
		src := topo.NodeID(int(srcRaw) % 16)
		dst := topo.NodeID(int(dstRaw) % 16)
		if src == dst {
			return true
		}
		steps := walkVLB(tab, src, dst, hash, 16)
		mid := tab.VLBPivot(src, dst, hash)
		return steps > 0 && float64(steps) <= tab.Distance(src, mid)+tab.Distance(mid, dst)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400, Rand: rand.New(rand.NewSource(111))}); err != nil {
		t.Fatal(err)
	}
}
