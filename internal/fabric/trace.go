package fabric

import (
	"rackfab/internal/host"
	"rackfab/internal/switching"
	"rackfab/internal/trace"
)

// This file is the packet datapath's flight-recorder surface: thin
// adapters between the fabric's callbacks and internal/trace. Every entry
// point is reached only when cfg.Trace was non-nil at assembly (the switch
// and host callbacks are left nil otherwise), so the tracing-off datapath
// pays nothing beyond the nil checks already in place.

// traceQueue observes one switch VOQ push or grant: a per-flow event plus
// a depth observation on the output link's windowed series. out 0 is
// egress to the local host (no link; Node identifies the queue).
func (f *Fabric) traceQueue(node int, enq bool, out int, fr *switching.Frame, depth int) {
	li := int32(-1)
	if out > 0 && out < len(f.edgeAt[node]) {
		if e := f.edgeAt[node][out]; e != nil {
			li = int32(e.Index())
			f.trace.ObserveDepth(li, f.eng.Now(), float64(depth))
		}
	}
	kind := trace.Dequeue
	if enq {
		kind = trace.Enqueue
	}
	f.trace.Record(trace.Event{
		At: f.eng.Now(), Kind: kind,
		Flow: int64(fr.FlowID), Link: li, Node: int32(node), Value: int64(depth),
	})
}

// traceNICQueue observes NIC send-queue churn: host-side queueing has no
// link, so events carry Node only (Link = -1).
func (f *Fabric) traceNICQueue(node int, enq bool, flow host.FlowID, depth int) {
	kind := trace.Dequeue
	if enq {
		kind = trace.Enqueue
	}
	f.trace.Record(trace.Event{
		At: f.eng.Now(), Kind: kind,
		Flow: int64(flow), Link: -1, Node: int32(node), Value: int64(depth),
	})
}
