package fluid

import (
	"errors"
	"fmt"
	"math"

	"rackfab/internal/faults"
	"rackfab/internal/route"
	"rackfab/internal/sim"
	"rackfab/internal/topo"
	"rackfab/internal/trace"
)

// This file is the fluid engine's fault-injection surface: mid-run link
// capacity changes (faults.LinkEvent, the lowered form of a
// faults.Schedule) and the rerouting they force. A capacity change is just
// another perturbation source for the incremental solver — the affected
// link seeds a component refill exactly like an arrival or completion, and
// the warm-start oracle replays or falls back by the same rules — so warm
// ≡ cold bit-equality survives churn (the fuzz walk drives capacity ops to
// prove it). Zero capacity starves the link's flows: routable ones are
// re-pathed onto the repaired table, partitioned ones park at rate 0 until
// a later repair heals them.

// applyLinkEventGroup applies every lowered fault event of one schedule
// instant as one transaction — the discipline the packet fabric's fault
// replay already follows. A node loss lowers to one event per incident
// link, all at the same At, and no simulated time separates them, so the
// intermediate topologies of a one-at-a-time replay never exist
// observably. The group commits every capacity and administrative change,
// repairs the table once through RepairBatch (which leaves it equal to a
// fresh route.Build), then moves every stranded active flow onto the
// repaired table in one pass in flow-ID order; a flow whose destination is
// cut off keeps its path. One refill, seeded by the changed links and the
// moved flows' old and new paths, re-solves the instant: survivors of a
// degrade pick up the new share, cut-off flows freeze at rate 0, flows of
// a restored link get their capacity back. A starved flow whose own path
// the group healed is not stranded, so it stays on that path.
// TestFaultGroupMatchesSequential holds a group to the flow outcomes of
// its events applied one at a time, and to one fill.
func (en *engine) applyLinkEventGroup(now sim.Time, evs []faults.LinkEvent) {
	en.epoch++
	en.seedBuf = en.seedBuf[:0]
	en.faultEdges = en.faultEdges[:0]
	for _, ev := range evs {
		li := int32(ev.Edge)
		newCap := en.nominalCap[li] * ev.Factor
		wasUp := en.linkCap[li] > 0
		isUp := newCap > 0
		en.stats.Faults.CapacityEvents++
		en.linkCap[li] = newCap
		en.trace.Record(trace.Event{
			At: now, Kind: trace.FaultApply,
			Flow: -1, Link: li, Node: -1,
			Value: int64(math.Round(ev.Factor * 1000)),
		})
		en.seed(li)
		if wasUp != isUp {
			e, _ := en.graph.Edge(int(li)) // a fluid graph never loses an edge
			e.SetEnabled(isUp)
			en.faultEdges = append(en.faultEdges, e)
		}
	}
	if len(en.faultEdges) > 0 && en.table != nil {
		cols := en.table.RepairBatch(en.graph, route.UniformCost, en.faultEdges)
		en.stats.Faults.RouteRepairs += int64(cols)
		en.routesChanged = true
		en.trace.Record(trace.Event{
			At: now, Kind: trace.FaultRepair,
			Flow: -1, Link: -1, Node: -1, Value: int64(cols),
		})
		// Only an administrative flip changes the table, so only then can
		// a stranded flow find a path. The moved flow keeps its remaining
		// volume (the refill's setRate settles it); its hop count — and
		// with it the per-hop latency charged at completion — tracks the
		// path it finishes on.
		for fid := range en.flows {
			f := &en.flows[fid]
			if !f.active || !en.stranded(f) {
				continue
			}
			links, ok := en.repath(int32(fid))
			if !ok {
				continue
			}
			for _, li := range f.links {
				en.seed(li)
			}
			en.unlink(int32(fid))
			f.links = links
			f.hops = len(links)
			for _, li := range links {
				en.seed(li)
				en.linkFlows[li] = append(en.linkFlows[li], int32(fid))
			}
			en.stats.Faults.Reroutes++
		}
	}
	en.refill(now, en.seedBuf, -1)
}

// stranded reports whether flow f has no path or a path that crosses a
// zero-capacity link: the flows a fault group re-paths.
func (en *engine) stranded(f *flowState) bool {
	if len(f.links) == 0 {
		return true
	}
	for _, li := range f.links {
		if en.linkCap[li] == 0 {
			return true
		}
	}
	return false
}

// repath computes flow fid's current shortest path against the live
// (repaired) table. ok is false when the destination is unreachable — a
// genuine partition; any other Path failure is a table-consistency bug and
// panics rather than silently starving the flow.
func (en *engine) repath(fid int32) ([]int32, bool) {
	f := &en.flows[fid]
	path, err := en.table.Path(topo.NodeID(f.spec.Src), topo.NodeID(f.spec.Dst))
	if err != nil {
		if errors.Is(err, route.ErrUnreachable) {
			return nil, false
		}
		panic(fmt.Sprintf("fluid: repath flow %d: %v", fid, err))
	}
	return path, true
}
