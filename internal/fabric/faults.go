// Packet-engine fault replay: the fabric consumes the same replayable
// faults.Schedule the fluid engine takes via its Config, as simulation
// events on its own clock. Each event group administratively toggles the
// affected edges (and darkens lanes for degrades), then repairs the live
// routing table incrementally in one batch triage — no oracle full rebuild.
// With the Closed Ring Control running, the next epoch's collection sees
// the changed fabric (disabled edges price to +Inf, darkened bundles lose
// effective rate) and the CRC's own re-pricing loop takes over the healing;
// the immediate incremental repair only keeps forwarding loop-free between
// the fault instant and that epoch.

package fabric

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"rackfab/internal/faults"
	"rackfab/internal/host"
	"rackfab/internal/phy"
	"rackfab/internal/sim"
	"rackfab/internal/topo"
	"rackfab/internal/trace"
)

// FaultStats returns the replay counters accumulated so far. A starvation
// episode here is a flow whose destination a fault cut off entirely.
func (f *Fabric) FaultStats() faults.Stats { return f.faultStats }

// ScheduleFaults validates the schedule, lowers it to per-link capacity
// events, and registers them on the simulation clock. Events sharing one
// instant — a node loss lowered to its incident edges — apply as a single
// group: every administrative change lands first, then one RepairBatch
// triages the group's edges against the current table. onApply, when
// non-nil, observes each applied group (the Closed Ring Control uses it to
// put replayed faults on its decision log). Returns the number of capacity
// events scheduled.
//
// The degrade lowering is necessarily discrete on the packet engine: a
// Degrade(frac) darkens lanes until at most max(1, round(frac·lanes)) stay
// active, so a 2-lane link degrades in halves, not to an arbitrary
// fraction. LinkUp restores the edge and every administratively darkened
// lane; lanes in bypass, training, or failed states are never touched.
func (f *Fabric) ScheduleFaults(sched *faults.Schedule, onApply func(evs []faults.LinkEvent, repairedCols int)) (int, error) {
	evs, err := sched.Links(f.g)
	if err != nil {
		return 0, err
	}
	if len(evs) == 0 {
		return 0, nil
	}
	for start := 0; start < len(evs); {
		end := start
		for end < len(evs) && evs[end].At == evs[start].At {
			end++
		}
		group := evs[start:end]
		at := group[0].At
		if at < f.eng.Now() {
			at = f.eng.Now() // late registration: apply at once, like InjectFlows
		}
		f.eng.At(at, "fault", func() {
			cols := f.applyFaultGroup(group)
			if onApply != nil {
				onApply(group, cols)
			}
		})
		start = end
	}
	return len(evs), nil
}

// applyFaultGroup applies one instant's capacity events and repairs the
// routing table once. An event on an express edge removed since the
// schedule was lowered is skipped. Returns the number of destination
// columns whose distances the repair rewrote.
func (f *Fabric) applyFaultGroup(evs []faults.LinkEvent) int {
	edges := make([]*topo.Edge, 0, len(evs))
	var downed []int32
	restored := false
	for _, ev := range evs {
		e, ok := f.g.Edge(ev.Edge)
		if !ok {
			continue
		}
		edges = append(edges, e)
		if ev.Factor == 0 && e.Enabled() {
			downed = append(downed, int32(e.Index()))
		} else if ev.Factor > 0 && !e.Enabled() {
			restored = true
		}
	}
	// Flow-level impact snapshot against the pre-repair table: the flows
	// whose current forwarding path rides a link this instant kills are the
	// ones the repair will either push onto detours or cut off. Frames
	// already in flight recover through the drop/retransmit path; this is
	// the flow-granular accounting the fluid engine keeps, so both engines
	// report comparable fault columns.
	var hit []*host.Flow
	if len(downed) > 0 {
		hit = f.flowsCrossing(downed)
	}
	for _, ev := range evs {
		e, ok := f.g.Edge(ev.Edge)
		if !ok {
			continue
		}
		f.faultStats.CapacityEvents++
		switch {
		case ev.Factor == 0:
			e.SetEnabled(false)
		case ev.Factor >= 1:
			e.SetEnabled(true)
			f.setActiveLanes(e, len(e.Link.Lanes))
		default:
			e.SetEnabled(true)
			f.setActiveLanes(e, int(math.Round(ev.Factor*float64(len(e.Link.Lanes)))))
		}
		f.trace.Record(trace.Event{
			At: f.eng.Now(), Kind: trace.FaultApply,
			Flow: -1, Link: int32(ev.Edge), Node: -1,
			Value: int64(math.Round(ev.Factor * 1000)),
		})
	}
	cols := f.table.RepairBatch(f.g, f.costFn, edges)
	f.faultStats.RouteRepairs += int64(cols)
	f.trace.Record(trace.Event{
		At: f.eng.Now(), Kind: trace.FaultRepair,
		Flow: -1, Link: -1, Node: -1, Value: int64(cols),
	})
	now := f.eng.Now()
	for _, fl := range hit {
		if f.table.Reachable(topo.NodeID(fl.Src), topo.NodeID(fl.Dst)) {
			f.faultStats.Reroutes++
		} else if f.starved == nil || !f.starvedSince(fl.ID) {
			if f.starved == nil {
				f.starved = make(map[host.FlowID]sim.Time)
			}
			f.starved[fl.ID] = now
		}
	}
	if restored && len(f.starved) > 0 {
		f.closeHealedStarvation(now)
	}
	if cols > 0 && f.vlb != nil {
		f.SetVLB(true) // re-derive VLB over the repaired table
	}
	f.samplePower()
	return cols
}

// starvedSince reports whether flow id already has an open starvation
// episode.
func (f *Fabric) starvedSince(id host.FlowID) bool {
	_, ok := f.starved[id]
	return ok
}

// flowsCrossing returns, in ascending flow-ID order, every active flow
// whose current shortest path (under the pre-repair table) crosses a link
// whose edge index is in `downed`. Flows whose destination was already
// unreachable are skipped: their episode is already open.
func (f *Fabric) flowsCrossing(downed []int32) []*host.Flow {
	ids := make([]host.FlowID, 0, len(f.active))
	//det:ordered keys are collected then sorted before any ordered use
	for id := range f.active {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var hit []*host.Flow
	for _, id := range ids {
		fl := f.active[id]
		path, err := f.table.Path(topo.NodeID(fl.Src), topo.NodeID(fl.Dst))
		if err != nil {
			continue
		}
		for _, li := range path {
			if slices.Contains(downed, li) {
				hit = append(hit, fl)
				break
			}
		}
	}
	return hit
}

// closeHealedStarvation closes — and only then counts, mirroring the fluid
// engine's revive-time accounting — every open starvation episode whose
// destination the just-applied repair made reachable again. Zero-duration
// episodes (cut and healed within one instant) never count. Episodes of
// flows that completed or failed during the outage close silently: the
// flow never returned to service.
func (f *Fabric) closeHealedStarvation(now sim.Time) {
	ids := make([]host.FlowID, 0, len(f.starved))
	//det:ordered keys are collected then sorted before any ordered use
	for id := range f.starved {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		fl, active := f.active[id]
		if !active {
			delete(f.starved, id)
			continue
		}
		if !f.table.Reachable(topo.NodeID(fl.Src), topo.NodeID(fl.Dst)) {
			continue
		}
		if d := now.Sub(f.starved[id]); d > 0 {
			f.faultStats.StarvedEpisodes++
			f.faultStats.StarvedTime += d
		}
		delete(f.starved, id)
	}
}

// setActiveLanes darkens or relights administratively togglable lanes
// (LaneUp/LaneOff only) until `target` of them carry traffic, clamped to
// [1, togglable]. Lanes darken from the bundle's tail and relight from the
// head, the same deterministic order the public DisableLanes surface uses.
func (f *Fabric) setActiveLanes(e *topo.Edge, target int) {
	togglable := 0
	for _, lane := range e.Link.Lanes {
		if s := lane.State(); s == phy.LaneUp || s == phy.LaneOff {
			togglable++
		}
	}
	if togglable == 0 {
		return
	}
	if target < 1 {
		target = 1
	}
	if target > togglable {
		target = togglable
	}
	// Relight head-first up to target, darken the rest tail-first.
	seen := 0
	for _, lane := range e.Link.Lanes {
		s := lane.State()
		if s != phy.LaneUp && s != phy.LaneOff {
			continue
		}
		want := phy.LaneUp
		if seen >= target {
			want = phy.LaneOff
		}
		seen++
		if s != want {
			if err := lane.SetState(want); err != nil {
				panic(fmt.Sprintf("fabric: fault lane toggle on link %d: %v", e.Index(), err))
			}
		}
	}
}
