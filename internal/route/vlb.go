package route

import (
	"rackfab/internal/topo"
)

// The VLB methods implement Valiant load balancing over the shortest-path
// table: each flow routes through a flow-hash-chosen intermediate node
// (the pivot), then on to its destination. Two shortest-path phases
// randomize load so that any admissible traffic matrix — including the
// adversarial permutations that concentrate a mesh's shortest paths onto a
// few links — spreads across the whole fabric, at the price of up to
// doubled path length. It is the classic oblivious counterpoint to the
// CRC's adaptive pricing, used by the A3 ablation. They read the table as
// it stands, so a rebuilt or repaired table routes VLB flows too.
//
// Valiant routing needs one bit of state per frame (which phase it is in);
// the fabric carries it in switching.Frame.VLBPhase2 and threads it
// through VLBTarget.

// VLBPivot returns the flow's pivot node: the first node from the flow
// hash onward that is neither src nor dst (a pivot there would degenerate
// to plain shortest path). A fabric with no other node has no pivot to
// offer; VLBPivot then returns dst, and the flow takes the plain shortest
// path.
func (t *Table) VLBPivot(src, dst topo.NodeID, flowHash uint64) topo.NodeID {
	base := flowHash % uint64(t.n)
	for k := uint64(0); k < 3; k++ { // src and dst rule out at most two
		if mid := topo.NodeID((base + k) % uint64(t.n)); mid != src && mid != dst {
			return mid
		}
	}
	return dst
}

// VLBTarget returns the node a frame standing at cur should steer toward
// and the frame's updated phase bit. Phase 1 heads for the pivot; reaching
// the pivot flips the frame to phase 2 (toward the destination) for the
// rest of its life.
func (t *Table) VLBTarget(src, cur, dst topo.NodeID, flowHash uint64, phase2 bool) (topo.NodeID, bool) {
	if phase2 {
		return dst, true
	}
	mid := t.VLBPivot(src, dst, flowHash)
	if cur == mid {
		return dst, true
	}
	return mid, false
}

// VLBNextHop resolves the edge for a frame at cur, returning the updated
// phase bit alongside.
func (t *Table) VLBNextHop(src, cur, dst topo.NodeID, flowHash uint64, phase2 bool) (*topo.Edge, bool, bool) {
	if cur == dst {
		return nil, phase2, false
	}
	target, nowPhase2 := t.VLBTarget(src, cur, dst, flowHash, phase2)
	e, ok := t.NextHopECMP(cur, target, flowHash)
	return e, nowPhase2, ok
}
