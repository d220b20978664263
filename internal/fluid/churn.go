package fluid

import (
	"errors"
	"fmt"
	"math"
	"slices"

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
// instant as a single topology transaction — the discipline the packet
// fabric's fault replay already follows. A node loss lowers to one event
// per incident link, all at the same At; applying them one at a time paid
// one table repair, one reroute pass, and one refill per link, with flows
// chasing intermediate topologies that never exist observably (no
// simulated time separates the events). The group path commits all
// capacity and administrative changes first, repairs the table once
// through RepairBatch, then reroutes off every downed link in event order
// and re-solves the union component with a single refill. Final paths and
// rates are those of the fully-updated topology either way (zero time
// elapses between same-instant events, so the intermediate solves settle
// no volume) — TestFaultGroupMatchesSequential holds the two shapes to
// identical flow outcomes.
func (en *engine) applyLinkEventGroup(now sim.Time, evs []faults.LinkEvent) {
	en.faultSeeds = en.faultSeeds[:0]
	en.faultEdges = en.faultEdges[:0]
	en.faultDowned = en.faultDowned[:0]
	restored := false
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
		en.faultSeeds = append(en.faultSeeds, li)
		if wasUp != isUp {
			e, _ := en.graph.Edge(int(li)) // a fluid graph never loses an edge
			e.SetEnabled(isUp)
			en.faultEdges = append(en.faultEdges, e)
			if !isUp {
				en.faultDowned = append(en.faultDowned, li)
			} else {
				restored = true
			}
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
	}
	for _, li := range en.faultDowned {
		en.rerouteOff(now, li)
	}
	// Re-solve what is left on the changed links: survivors of a degrade
	// pick up the new share, stranded flows of a down link freeze at rate
	// 0, flows of a restored link get their capacity back.
	en.refill(now, en.faultSeeds, -1)
	if restored {
		en.rescueStarved(now)
	}
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

// reroute moves active flow fid onto a new path mid-flight and re-solves
// the union component of the old and new paths. The flow keeps its
// remaining volume (settlement is handled by the refill's setRate); its
// hop count — and with it the per-hop latency charged at completion —
// tracks the path it finishes on.
func (en *engine) reroute(now sim.Time, fid int32, links []int32) {
	f := &en.flows[fid]
	en.seedBuf = en.seedBuf[:0]
	en.seedBuf = append(en.seedBuf, f.links...)
	en.seedBuf = append(en.seedBuf, links...)
	for _, li := range f.links {
		lf := en.linkFlows[li]
		for k, id := range lf {
			if id == fid {
				lf[k] = lf[len(lf)-1]
				en.linkFlows[li] = lf[:len(lf)-1]
				break
			}
		}
	}
	f.links = links
	f.hops = len(links)
	for _, li := range links {
		en.linkFlows[li] = append(en.linkFlows[li], fid)
	}
	en.stats.Faults.Reroutes++
	en.refill(now, en.seedBuf, -1)
}

// rerouteOff re-paths, in flow-ID order, every active flow crossing the
// just-failed link li. Flows whose destination survived the failure move
// to the repaired table's shortest path; partitioned ones stay — the
// subsequent refill freezes them at rate 0 and rescueStarved retries them
// on the next restore.
func (en *engine) rerouteOff(now sim.Time, li int32) {
	if en.table == nil {
		return
	}
	fids := append([]int32(nil), en.linkFlows[li]...)
	slices.Sort(fids)
	for _, fid := range fids {
		if links, ok := en.repath(fid); ok {
			en.reroute(now, fid, links)
		}
	}
}

// rescueStarved retries every starved flow after a restore, in flow-ID
// order: flows whose partition just healed reroute onto the live table and
// leave starvation inside reroute's refill. Flows still cut off stay
// parked.
func (en *engine) rescueStarved(now sim.Time) {
	if en.starvedNow == 0 || en.table == nil {
		return
	}
	for fid := range en.flows {
		f := &en.flows[fid]
		if !f.active || !f.starved {
			continue
		}
		if links, ok := en.repath(int32(fid)); ok {
			en.reroute(now, int32(fid), links)
		}
	}
}
