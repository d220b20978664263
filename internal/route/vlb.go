package route

import (
	"rackfab/internal/topo"
)

// VLB implements Valiant load balancing on top of a shortest-path table:
// each flow routes through a flow-hash-chosen intermediate node (the
// pivot), then on to its destination. Two shortest-path phases randomize
// load so that any admissible traffic matrix — including the adversarial
// permutations that concentrate a mesh's shortest paths onto a few links —
// spreads across the whole fabric, at the price of up to doubled path
// length. It is the classic oblivious counterpoint to the CRC's adaptive
// pricing, used by the A3 ablation.
//
// Valiant routing needs one bit of state per frame (which phase it is in);
// the fabric carries it in switching.Frame.VLBPhase2 and threads it
// through Target.
type VLB struct {
	table *Table
	n     int
}

// NewVLB wraps a shortest-path table over a fabric of nodes.
func NewVLB(table *Table, nodes int) *VLB {
	if nodes <= 0 {
		panic("route: VLB needs nodes")
	}
	return &VLB{table: table, n: nodes}
}

// Intermediate returns the flow's pivot node: the first node from the
// flow hash onward that is neither src nor dst (a pivot there would
// degenerate to plain shortest path). A fabric with no other node has no
// pivot to offer; Intermediate then returns dst, and the flow takes the
// plain shortest path.
func (v *VLB) Intermediate(src, dst topo.NodeID, flowHash uint64) topo.NodeID {
	base := flowHash % uint64(v.n)
	for k := uint64(0); k < 3; k++ { // src and dst rule out at most two
		if mid := topo.NodeID((base + k) % uint64(v.n)); mid != src && mid != dst {
			return mid
		}
	}
	return dst
}

// Target returns the node a frame standing at cur should steer toward and
// the frame's updated phase bit. Phase 1 heads for the pivot; reaching the
// pivot flips the frame to phase 2 (toward the destination) for the rest
// of its life.
func (v *VLB) Target(src, cur, dst topo.NodeID, flowHash uint64, phase2 bool) (topo.NodeID, bool) {
	if phase2 {
		return dst, true
	}
	mid := v.Intermediate(src, dst, flowHash)
	if cur == mid {
		return dst, true
	}
	return mid, false
}

// NextHop resolves the edge for a frame at cur, returning the updated
// phase bit alongside.
func (v *VLB) NextHop(src, cur, dst topo.NodeID, flowHash uint64, phase2 bool) (*topo.Edge, bool, bool) {
	if cur == dst {
		return nil, phase2, false
	}
	target, nowPhase2 := v.Target(src, cur, dst, flowHash, phase2)
	e, ok := v.table.NextHopECMP(cur, target, flowHash)
	return e, nowPhase2, ok
}
