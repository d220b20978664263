package rackfab

import (
	"fmt"
	"time"

	"rackfab/internal/fec"
	"rackfab/internal/phy"
	"rackfab/internal/ringctl"
	"rackfab/internal/sim"
	"rackfab/internal/topo"
)

// This file exposes the library's advanced capabilities through the public
// façade: channel fault models, routing disciplines, link pricing
// introspection, and the FEC ladder. Everything here wraps internal
// packages so downstream users never import internal/.

// BurstChannelConfig parameterizes a Gilbert–Elliott channel model.
type BurstChannelConfig struct {
	// GoodBER and BadBER are the per-state bit error rates (BadBER must
	// exceed GoodBER).
	GoodBER, BadBER float64
	// MeanGoodDwell and MeanBadDwell are the mean state durations.
	MeanGoodDwell, MeanBadDwell time.Duration
}

// AttachBurstChannel installs a two-state burst error model on every lane
// of the link joining nodes a and b. Each lane gets an independent channel
// instance (seeded from the cluster seed), matching real bundles whose
// lanes fail independently.
func (c *Cluster) AttachBurstChannel(a, b int, cfg BurstChannelConfig) error {
	if c.pk == nil {
		return errPacketOnly("burst channel models")
	}
	e, ok := c.graph.EdgeBetween(topo.NodeID(a), topo.NodeID(b))
	if !ok {
		return fmt.Errorf("rackfab: no link between %d and %d", a, b)
	}
	rng := sim.NewRNG(c.cfg.Seed).Split(fmt.Sprintf("burst/%d-%d", a, b))
	for _, lane := range e.Link.Lanes {
		ch, err := phy.NewBurstChannel(
			rng.SplitIndexed("lane", lane.Index),
			cfg.GoodBER, cfg.BadBER,
			simDur(cfg.MeanGoodDwell), simDur(cfg.MeanBadDwell),
		)
		if err != nil {
			return err
		}
		lane.AttachBurstChannel(ch)
	}
	return nil
}

// DetachBurstChannel removes burst models from the link joining a and b,
// freezing each lane at its current BER.
func (c *Cluster) DetachBurstChannel(a, b int) error {
	if c.pk == nil {
		return errPacketOnly("burst channel models")
	}
	e, ok := c.graph.EdgeBetween(topo.NodeID(a), topo.NodeID(b))
	if !ok {
		return fmt.Errorf("rackfab: no link between %d and %d", a, b)
	}
	for _, lane := range e.Link.Lanes {
		lane.DetachBurstChannel()
	}
	return nil
}

// SetValiantRouting switches the fabric between shortest-path forwarding
// (default) and Valiant load balancing — the oblivious two-phase
// discipline the A3 ablation compares against the CRC's adaptive pricing.
// A no-op on the fluid engine, which always routes shortest-path.
func (c *Cluster) SetValiantRouting(enabled bool) {
	if c.pk == nil {
		return
	}
	c.pk.fab.SetVLB(enabled)
}

// LinkPrice is one entry of the CRC's price book.
type LinkPrice struct {
	// A and B are the link's endpoints (express channels report their
	// bypass endpoints).
	A, B int
	// Express marks a runtime bypass channel.
	Express bool
	// Price is the current smoothed price tag (0 = idle, healthy, cheap).
	Price float64
}

// LinkPrices snapshots the CRC's current per-link price tags, sorted by
// link identity. It returns nil without control enabled.
func (c *Cluster) LinkPrices() []LinkPrice {
	if c.pk == nil || c.pk.ctl == nil {
		return nil
	}
	snap := c.pk.ctl.Prices().Snapshot()
	out := make([]LinkPrice, 0, len(snap))
	for _, entry := range snap {
		e, ok := c.graph.LinkByID(entry.Link)
		if !ok {
			continue // link retired (reclaimed express channel)
		}
		out = append(out, LinkPrice{
			A: int(e.A), B: int(e.B), Express: e.Express, Price: entry.Price,
		})
	}
	return out
}

// FECProfileInfo describes one rung of the adaptive FEC ladder.
type FECProfileInfo struct {
	// Name identifies the profile ("none", "secded(72,64)", …).
	Name string
	// Overhead is wire bits per data bit (≥1).
	Overhead float64
	// Latency is the added encode+decode pipeline delay per traversal.
	Latency time.Duration
	// PowerW is the extra per-port draw with the profile enabled.
	PowerW float64
}

// FECLadder returns the adaptive controller's profile ladder in escalation
// order.
func FECLadder() []FECProfileInfo {
	ladder := fec.Ladder()
	out := make([]FECProfileInfo, len(ladder))
	for i, p := range ladder {
		out[i] = FECProfileInfo{
			Name:     p.Name(),
			Overhead: p.Overhead(),
			Latency:  fromSim(p.Latency),
			PowerW:   p.PowerW,
		}
	}
	return out
}

// MinFlowSizeForBypass returns σ*, the smallest remaining flow size for
// which paying the given setup time to move from rateBefore to rateAfter
// (bit/s) shortens completion — the paper's central reconfiguration
// criterion, exposed for planning tools.
func MinFlowSizeForBypass(setup time.Duration, rateBefore, rateAfter float64) int64 {
	return ringctl.MinFlowSize(simDur(setup), rateBefore, rateAfter)
}
