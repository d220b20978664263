package ringctl

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"rackfab/internal/fec"
	"rackfab/internal/netstack"
	"rackfab/internal/phy"
	"rackfab/internal/plp"
	"rackfab/internal/topo"
)

// linkFEC is the per-link adaptive FEC state (PLP #4).
type linkFEC struct {
	adaptive *fec.Adaptive
	current  string
}

// runFECPolicy walks every link's measured BER through its adaptive
// controller and issues SetFEC where the selection changed. The loss model
// is sized for a full-MTU data frame on the wire.
func (c *Controller) runFECPolicy(reports []LinkReport) {
	frameBits := int(netstack.WireBitsForPayload(netstack.MaxPayload))
	for _, r := range reports {
		if !r.Up {
			continue
		}
		if r.Link >= len(c.fecStates) {
			c.fecStates = append(c.fecStates, make([]*linkFEC, r.Link+1-len(c.fecStates))...)
		}
		st := c.fecStates[r.Link]
		if st == nil {
			dwell := c.cfg.FECDeescalateDwell
			if dwell <= 0 {
				dwell = fec.DefaultDeescalateDwell
			}
			st = &linkFEC{adaptive: fec.NewAdaptiveDwell(fec.DefaultTargetFLR, dwell), current: "none"}
			c.fecStates[r.Link] = st
		}
		prof, changed := st.adaptive.Pick(r.MeasuredBER, frameBits)
		if !changed || prof.Name() == st.current {
			continue
		}
		cmd := plp.Command{
			Kind:       plp.SetFEC,
			Link:       r.Link,
			FECProfile: prof.Name(),
			Reason:     fmt.Sprintf("measured BER %.2g", r.MeasuredBER),
		}
		if c.issue("fec", fmt.Sprintf("%s → %s at BER %.2g", st.current, prof.Name(), r.MeasuredBER), cmd) {
			st.current = prof.Name()
		}
	}
}

// runPowerPolicy enforces the rack envelope with PLP #3: over budget, shed
// the least-utilized lane of the widest link; back under budget with
// congestion, re-light lanes where they relieve the hottest link.
func (c *Controller) runPowerPolicy(reports []LinkReport) {
	budget := c.fabric.PowerBudget()
	if budget == nil || budget.CapW == 0 {
		return
	}
	headroom, capped := budget.HeadroomW()
	if !capped {
		return
	}
	switch {
	case headroom < 0:
		// Shed lanes until the projected draw clears the cap, starting
		// from the lowest-utilization links that still keep >1 active
		// lane (never darken a link completely — connectivity first).
		cands := make([]LinkReport, 0, len(reports))
		for _, r := range reports {
			if r.Up && r.ActiveLanes > 1 {
				cands = append(cands, r)
			}
		}
		sort.Slice(cands, func(i, j int) bool { return cands[i].Utilization < cands[j].Utilization })
		if len(cands) == 0 {
			c.log("power", "over budget but no sheddable lanes", nil)
			return
		}
		deficit := -headroom
		for _, r := range cands {
			if deficit <= 0 {
				break
			}
			cmd := plp.Command{
				Kind:   plp.LaneOff,
				Link:   r.Link,
				Lane:   r.ActiveLanes - 1,
				Reason: fmt.Sprintf("over budget by %.1f W", deficit),
			}
			if c.issue("power", fmt.Sprintf("shed lane on link %d (util %.2f)", r.Link, r.Utilization), cmd) {
				deficit -= 2 * phy.ProfileOf(r.Media).LanePowerW
			}
		}

	case headroom > budget.CapW*0.1:
		// Re-light: the hottest link with dark lanes, if the extra lane's
		// draw fits comfortably inside the headroom.
		var best *LinkReport
		for i, r := range reports {
			if !r.Up || r.ActiveLanes >= r.TotalLanes || r.Utilization < 0.6 {
				continue
			}
			if best == nil || r.Utilization > best.Utilization {
				best = &reports[i]
			}
		}
		if best == nil {
			return
		}
		laneDraw := 2 * phy.ProfileOf(best.Media).LanePowerW
		if laneDraw > headroom*0.8 {
			return
		}
		cmd := plp.Command{
			Kind:   plp.LaneOn,
			Link:   best.Link,
			Lane:   best.ActiveLanes,
			Reason: fmt.Sprintf("util %.2f with %.1f W headroom", best.Utilization, headroom),
		}
		c.issue("power", fmt.Sprintf("re-light lane on link %d", best.Link), cmd)
	}
}

// runBypassPolicy provisions physical-layer express channels for elephant
// flows whose remaining bytes clear the σ* threshold — "pre-fetching
// techniques, but at the physical layer of the interconnect".
func (c *Controller) runBypassPolicy(reports []LinkReport) {
	if c.bypasses >= MaxBypasses {
		return
	}
	_ = reports
	g := c.fabric.Graph()
	flows := c.fabric.TopFlows(4)
	// Links whose spare lane was promised to an express channel in this
	// epoch: the Break commands have not applied yet, so graph state alone
	// cannot prevent double-donation.
	donated := make([]bool, g.EdgeIndexBound())
	for _, f := range flows {
		if c.bypasses >= MaxBypasses {
			return
		}
		if f.Src == f.Dst {
			continue
		}
		if f.Rate <= 0 {
			continue // too young to judge: no delivery evidence yet
		}
		src, dst := topo.NodeID(f.Src), topo.NodeID(f.Dst)
		if c.bypassed[[2]int{f.Src, f.Dst}] != nil {
			continue // already issued (possibly still setting up)
		}
		if _, exists := g.ExpressBetween(src, dst); exists {
			continue
		}
		path := c.donorPath(g, src, dst, donated)
		if path == nil || len(path) < 2 {
			continue // no viable donor chain (adjacent, or no spare lanes)
		}
		// Setup cost: one Break per path link plus the bypass itself.
		media := path[0].Link.Media
		prof := phy.ProfileOf(media)
		if !prof.SupportsBypass {
			continue
		}
		breakLat, _ := plp.Cost(prof, plp.Break)
		bypassLat, _ := plp.Cost(prof, plp.BypassOn)
		setup := breakLat + bypassLat

		rateAfter := donorRate(path)
		// Demand a real speedup margin: the measured rate is a noisy
		// cumulative estimate, and moving a healthy flow onto a dedicated
		// but narrower express lane is a net loss.
		if rateAfter < 1.25*f.Rate {
			continue
		}
		ok, saving := Worthwhile(f.BytesRemaining, setup, f.Rate, rateAfter)
		if !ok {
			continue
		}
		// Issue the donor breaks, then the bypass.
		nodes := pathNodes(src, path)
		for _, e := range path {
			donated[e.Index()] = true
			cmd := plp.Command{
				Kind:       plp.Break,
				Link:       e.Index(),
				KeepLanes:  e.Link.ActiveLanes() - 1,
				FreedState: phy.LaneBypassed,
				Reason:     fmt.Sprintf("donate lane to flow %d express", f.ID),
			}
			c.issue("bypass", fmt.Sprintf("break link %d for express %d→%d", e.Index(), src, dst), cmd)
		}
		cmd := plp.Command{
			Kind:   plp.BypassOn,
			Path:   nodes,
			Reason: fmt.Sprintf("flow %d: %d B remaining > σ*, saves %v", f.ID, f.BytesRemaining, saving),
		}
		if c.issue("bypass", fmt.Sprintf("express %d→%d for flow %d", src, dst, f.ID), cmd) {
			c.bypasses++
			c.bypassed[[2]int{f.Src, f.Dst}] = &bypassState{path: nodes}
		}
	}
}

// donorPath returns the flow's current non-express route if every hop has a
// fresh spare lane to donate (≥2 active and not promised this epoch).
func (c *Controller) donorPath(g *topo.Graph, src, dst topo.NodeID, donated []bool) []*topo.Edge {
	// Walk a BFS shortest path over construction edges only.
	type crumb struct {
		node topo.NodeID
		edge *topo.Edge
		prev int
	}
	crumbs := []crumb{{node: src, prev: -1}}
	seen := map[topo.NodeID]bool{src: true}
	found := -1
	for i := 0; i < len(crumbs) && found < 0; i++ {
		for _, e := range g.Adjacent(crumbs[i].node) {
			if e.Express || !e.Link.Up() {
				continue
			}
			m := e.Other(crumbs[i].node)
			if seen[m] {
				continue
			}
			seen[m] = true
			crumbs = append(crumbs, crumb{node: m, edge: e, prev: i})
			if m == dst {
				found = len(crumbs) - 1
				break
			}
		}
	}
	if found < 0 {
		return nil
	}
	var path []*topo.Edge
	for i := found; crumbs[i].prev >= 0; i = crumbs[i].prev {
		path = append([]*topo.Edge{crumbs[i].edge}, path...)
	}
	// Every hop must have a fresh donor lane.
	for _, e := range path {
		if e.Link.ActiveLanes() < 2 || donated[e.Index()] {
			return nil
		}
	}
	return path
}

// pathNodes converts src + edge list to the node chain for a bypass path.
func pathNodes(src topo.NodeID, path []*topo.Edge) []int {
	nodes := []int{int(src)}
	cur := src
	for _, e := range path {
		cur = e.Other(cur)
		nodes = append(nodes, int(cur))
	}
	return nodes
}

// donorRate is the express channel's rate: one donated lane per hop, so
// the slowest donor lane bounds it.
func donorRate(path []*topo.Edge) float64 {
	rate := 0.0
	for i, e := range path {
		var lane float64
		if len(e.Link.Lanes) > 0 {
			lane = e.Link.Lanes[0].Rate
		}
		if i == 0 || lane < rate {
			rate = lane
		}
	}
	return rate
}

// runBypassReclaim tears down express channels whose elephants have
// drained: PLP resources are leased, not granted. After
// BypassReclaimEpochs consecutive idle epochs the channel is removed and
// every donor link re-bundled to full width. Only channels this policy
// built are candidates — reconfiguration wrap links are load-bearing
// topology, not per-flow leases.
func (c *Controller) runBypassReclaim(reports []LinkReport) {
	if len(c.bypassed) == 0 {
		return
	}
	g := c.fabric.Graph()
	byLink := make([]*LinkReport, g.EdgeIndexBound())
	for i := range reports {
		byLink[reports[i].Link] = &reports[i]
	}
	// Visit channels in (src, dst) order: several may go idle in one
	// epoch, and their commands and log lines must not follow map order.
	// At most MaxBypasses channels live at once, so the keys fit in buf
	// and the sort allocates nothing.
	var buf [MaxBypasses][2]int
	pairs := buf[:0]
	//det:ordered keys are collected then sorted before any ordered use
	for pair := range c.bypassed {
		pairs = append(pairs, pair)
	}
	slices.SortFunc(pairs, func(a, b [2]int) int {
		return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1]))
	})
	for _, pair := range pairs {
		st := c.bypassed[pair]
		e, ok := g.ExpressBetween(topo.NodeID(pair[0]), topo.NodeID(pair[1]))
		if !ok {
			continue // still setting up, or already gone
		}
		r := byLink[e.Index()]
		if r == nil {
			continue
		}
		if r.Utilization > BypassIdleUtilization {
			st.idleEpochs = 0
			continue
		}
		st.idleEpochs++
		if st.idleEpochs < BypassReclaimEpochs {
			continue
		}
		off := plp.Command{
			Kind:   plp.BypassOff,
			Path:   st.path,
			Reason: fmt.Sprintf("express %d→%d idle for %d epochs", pair[0], pair[1], st.idleEpochs),
		}
		if !c.issue("bypass", fmt.Sprintf("reclaim express %d→%d", pair[0], pair[1]), off) {
			continue
		}
		// Re-bundle the donor links along the path.
		for i := 0; i+1 < len(st.path); i++ {
			de, ok := g.EdgeBetween(topo.NodeID(st.path[i]), topo.NodeID(st.path[i+1]))
			if !ok {
				continue
			}
			bundle := plp.Command{
				Kind:   plp.Bundle,
				Link:   de.Index(),
				Reason: "restore donor lanes after express reclaim",
			}
			c.issue("bypass", fmt.Sprintf("re-bundle link %d", de.Index()), bundle)
		}
		delete(c.bypassed, pair)
		c.bypasses--
	}
}

// runReconfigPolicy fires Figure 2's grid→torus mutation when sustained
// utilization shows the grid's mean hop count is the bottleneck.
func (c *Controller) runReconfigPolicy(reports []LinkReport) {
	if c.reconfigd {
		return
	}
	g := c.fabric.Graph()
	if g.Kind() != "grid" || g.Width() < 3 || g.Height() < 3 || g.Options().LanesPerLink < 2 {
		return
	}
	var meanUtil float64
	n := 0
	for _, r := range reports {
		if r.Up {
			meanUtil += r.Utilization
			n++
		}
	}
	if n == 0 {
		return
	}
	meanUtil /= float64(n)
	if meanUtil < ReconfigUtilization {
		return
	}
	c.log("reconfig", fmt.Sprintf("mean util %.2f ≥ %.2f: triggering grid→torus", meanUtil, ReconfigUtilization), nil)
	if err := c.ApplyGridToTorus(1); err != nil {
		c.log("reconfig", fmt.Sprintf("plan failed: %v", err), nil)
	}
}

// ApplyGridToTorus compiles and executes the Figure 2 reconfiguration,
// logging every primitive. Experiments call it directly for deterministic
// runs; the automatic trigger calls it from runReconfigPolicy.
func (c *Controller) ApplyGridToTorus(keepLanes int) error {
	plan, err := topo.GridToTorusPlan(c.fabric.Graph(), keepLanes)
	if err != nil {
		return err
	}
	for _, cmd := range plan.Commands {
		c.issue("reconfig", cmd.Reason, cmd)
	}
	c.reconfigd = true
	return nil
}
