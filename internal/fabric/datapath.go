package fabric

import (
	"rackfab/internal/host"
	"rackfab/internal/sim"
	"rackfab/internal/switching"
	"rackfab/internal/topo"
)

// splitmix64 mixes flow IDs into ECMP hashes.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// hostInject is the NIC→switch handoff: the frame enters the local
// switch's host input port.
func (f *Fabric) hostInject(node int, fr *switching.Frame) {
	if fr.SrcNode == fr.DstNode {
		// Loopback without touching the fabric.
		f.deliver(node, fr)
		return
	}
	f.switches[node].Inject(0, fr)
}

// forward is the switch lookup: local delivery on port 0, otherwise the
// price-routed next hop (ECMP across ties by flow hash), or the Valiant
// two-phase route when VLB is enabled.
func (f *Fabric) forward(node int, fr *switching.Frame) (int, bool) {
	if fr.DstNode == node {
		return 0, true
	}
	var e *topo.Edge
	var ok bool
	if f.vlb {
		e, fr.VLBPhase2, ok = f.table.VLBNextHop(
			topo.NodeID(fr.SrcNode), topo.NodeID(node), topo.NodeID(fr.DstNode),
			splitmix64(fr.FlowID), fr.VLBPhase2)
	} else {
		e, ok = f.table.NextHopECMP(topo.NodeID(node), topo.NodeID(fr.DstNode), splitmix64(fr.FlowID))
	}
	if !ok {
		return 0, false
	}
	ls := f.links[e.Index()]
	if ls == nil {
		return 0, false // edge removed mid-flight
	}
	return ls.port(topo.NodeID(node)), true
}

// transmit puts fr on the wire of node's output port and returns its
// serialization time. It runs exactly when serialization starts.
func (f *Fabric) transmit(node, port int, fr *switching.Frame) sim.Duration {
	if port == 0 {
		// Egress to the local host: deliver when serialization completes.
		tx := sim.Transmission(fr.DataBits, f.cfg.Host.NICRate)
		f.eng.PostAfter(tx, (*hostRx)(f), node, fr)
		return tx
	}
	e := f.edgeAt[node][port]
	if e == nil || !e.Link.Up() {
		// The link died with the frame queued: drop it, and hold the
		// output for a nominal time.
		f.onDrop(fr, "link-down")
		return sim.Microsecond
	}
	ls := f.links[e.Index()]
	link := e.Link

	serialize := link.SerializationDelay(fr.DataBits)
	prop := link.PropagationDelay()
	if e.Express {
		// Retimers at each bypassed node add their per-node latency.
		prop += sim.Duration(len(e.Via)) * link.Profile().PerNodeBypassLatency
	}
	fecLat := link.FEC().Latency

	// Channel error model. A train draws once for its whole wire burst
	// (runs that inject BER pin NICs to per-frame granularity, so trains
	// only ever see clean channels in practice).
	if link.TransferFrame(f.rng, f.eng.Now(), fr.DataBits) {
		// Cut-through semantics: the corrupt frame still propagates; the
		// destination NIC's FCS check catches it and NACKs.
		if ctx, ok := fr.Meta.(*host.FrameCtx); ok {
			ctx.Corrupt = true
		}
		f.stats.Corrupt.Add(int64(fr.Frames))
	}

	// Direction accounting for utilization reports.
	ls.busyPs[ls.side(topo.NodeID(node))] += int64(serialize)
	if f.trace != nil {
		// Both directions fold into the edge's one utilization track.
		f.trace.ObserveBusy(int32(e.Index()), f.eng.Now(), float64(serialize))
	}

	// VOQ delay observed by frames leaving on this link.
	sojourn := f.eng.Now().Sub(fr.Injected)
	ls.qDelay.Observe(float64(sojourn) / float64(1+fr.Hops))
	if perHop := sojourn / sim.Duration(1+fr.Hops); perHop > ls.qPeak {
		ls.qPeak = perHop
	}

	// Arrival at the peer: cut-through forwards once the header has
	// landed; store-and-forward waits for the tail. Express channels haul
	// the frame straight to the far endpoint either way.
	var ingress sim.Duration
	if f.cfg.Switch.Mode == switching.CutThrough {
		header := link.SerializationDelay(minInt64(CutThroughHeaderBits, fr.DataBits))
		ingress = header + prop + fecLat
	} else {
		ingress = serialize + prop + fecLat
	}
	fr.Hops++
	f.eng.PostAfter(ingress, ls, int(e.Other(topo.NodeID(node))), fr)
	return serialize
}

// Handle is the link-rx event: frame x has reached node peer's ingress
// over ls's edge (its header under cut-through, its tail otherwise).
func (ls *linkState) Handle(peer int, x any) {
	f, fr := ls.fab, x.(*switching.Frame)
	if f.links[ls.edge.Index()] == nil {
		f.onDrop(fr, "peer-port-gone")
		return
	}
	f.switches[peer].Inject(ls.port(topo.NodeID(peer)), fr)
}

// hostRx is the host-rx event: frame x has finished serializing out of
// node's switch port 0 and reaches the node's host.
type hostRx Fabric

func (f *hostRx) Handle(node int, x any) { (*Fabric)(f).deliver(node, x.(*switching.Frame)) }

func minInt64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// deliver hands fr to the destination host, expanding a train back to
// per-member-frame accounting so frame-level telemetry stays comparable
// across train lengths.
func (f *Fabric) deliver(node int, fr *switching.Frame) {
	n := int64(fr.Frames)
	f.stats.Delivered.Add(n)
	f.stats.Latency.RecordN(int64(f.eng.Now().Sub(fr.Injected)), n)
	f.stats.Hops.RecordN(int64(fr.Hops), n)
	f.hosts[node].Deliver(fr, f.hosts[fr.SrcNode])
}

// onDrop recovers dropped frames through the transport retry path.
func (f *Fabric) onDrop(fr *switching.Frame, reason string) {
	f.stats.Dropped.Inc()
	if ctx, ok := fr.Meta.(*host.FrameCtx); ok {
		f.hosts[ctx.Flow.Src].Retransmit(ctx, RetryDelay)
	}
	_ = reason
}

// onPause relays ingress backpressure to the upstream transmitter: the
// local host NIC for port 0, or the peer switch output feeding a fabric
// input port.
func (f *Fabric) onPause(node, port int, paused bool) {
	if port == 0 {
		f.hosts[node].SetPaused(paused)
		return
	}
	e := f.edgeAt[node][port]
	if e == nil {
		return
	}
	peer := e.Other(topo.NodeID(node))
	f.switches[peer].SetOutputPaused(f.links[e.Index()].port(peer), paused)
}

// nackDelay estimates the reverse-path control latency for a corruption
// NACK: hops × (pipeline + one hop of flight time), no queueing. The hops
// are the primary path's links, not its distance, which the CRC's prices
// scale; an unreachable sender is charged one hop.
func (f *Fabric) nackDelay(from, to int) sim.Duration {
	hops, err := f.table.Hops(topo.NodeID(from), topo.NodeID(to))
	if err != nil || hops < 1 {
		hops = 1
	}
	perHop := f.cfg.Switch.PipelineLatency + 10*sim.Nanosecond
	return sim.Duration(int64(hops) * int64(perHop))
}
