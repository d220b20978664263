// Package host models the end systems of the rack: NICs, flow senders, and
// receivers. Hosts are deliberately ordinary — the paper's backwards-
// compatibility commitment means "existing applications benefit from the
// architecture with no required change" — so this layer is a plain NIC
// queue, MTU-sized framing, and a NACK-based retransmit scheme for frames
// the FEC could not save. All adaptivity lives below it.
package host

import (
	"fmt"

	"rackfab/internal/fifo"
	"rackfab/internal/netstack"
	"rackfab/internal/sim"
	"rackfab/internal/switching"
)

// FlowID identifies a flow within a run.
type FlowID uint64

// Flow is one transfer of Bytes from Src to Dst.
type Flow struct {
	ID    FlowID
	Src   int
	Dst   int
	Bytes int64

	// progress
	started    sim.Time
	finished   sim.Time
	done       bool
	failed     bool
	ackedBytes int64 // bytes delivered clean
	retx       int64
}

// Failed reports the flow was abandoned after MaxRetries on some frame.
func (f *Flow) Failed() bool { return f.failed }

// AckedBytes returns bytes delivered clean so far.
func (f *Flow) AckedBytes() int64 { return f.ackedBytes }

// Remaining returns bytes not yet delivered clean.
func (f *Flow) Remaining() int64 { return f.Bytes - f.ackedBytes }

// Started returns the injection time of the flow's first frame.
func (f *Flow) Started() sim.Time { return f.started }

// Done reports completion.
func (f *Flow) Done() bool { return f.done }

// FCT returns the flow completion time; it panics on unfinished flows.
func (f *Flow) FCT() sim.Duration {
	if !f.done {
		panic(fmt.Sprintf("host: FCT of unfinished flow %d", f.ID))
	}
	return f.finished.Sub(f.started)
}

// Retransmits returns the number of retransmitted frames.
func (f *Flow) Retransmits() int64 { return f.retx }

// FrameCtx is the per-frame transport context carried in
// switching.Frame.Meta. It also holds the frame itself, so one allocation
// backs both; once the receiver consumes a clean frame, the pair goes back
// to the sending host's free list.
type FrameCtx struct {
	Flow *Flow
	// Seq is the frame index within the flow (the first member's index
	// when the context describes a train).
	Seq int64
	// PayloadBytes is the frame's payload size (the summed member payload
	// for a train).
	PayloadBytes int
	// Frames is the member-frame count: 1 for an ordinary frame, >1 when
	// the context describes a train of consecutive same-flow MTU frames
	// coalesced into one scheduling event.
	Frames int
	// Corrupt marks a frame poisoned by an uncorrectable FEC block; the
	// receiving NIC detects it on the final FCS check and NACKs.
	Corrupt bool
	// Retries counts resend attempts for this frame.
	Retries int

	frame switching.Frame
}

// MaxRetries bounds per-frame resend attempts; a frame exceeding it marks
// its flow failed rather than looping forever (e.g. a permanently
// disconnected destination).
const MaxRetries = 1000

// Config sizes a host.
type Config struct {
	// NICRate is the host injection rate in bit/s.
	NICRate float64
	// TrainLength is the maximum number of consecutive same-flow MTU
	// frames the NIC coalesces into one train event (≤1 disables
	// batching: every frame is its own event). Trains charge the wire the
	// exact per-frame bit total, so throughput and fair sharing are
	// unchanged; only event granularity coarsens. Keep it at 1 when the
	// run observes individual frames — per-frame BER injection or the CRC
	// telemetry loop.
	TrainLength int
}

// DefaultConfig matches a 100G host NIC at per-frame granularity.
func DefaultConfig() Config {
	return Config{NICRate: 100e9, TrainLength: 1}
}

// Callbacks connect a host to the fabric.
type Callbacks struct {
	// Inject hands a frame to the local switch's host port. The fabric
	// owns onward delivery.
	Inject func(f *switching.Frame)
	// NACKDelay estimates the control-plane delay for a corruption NACK
	// from dst back to src (reverse-path latency without queueing).
	NACKDelay func(src, dst int) sim.Duration
	// Trace, when non-nil, observes NIC send-queue occupancy for the
	// flight recorder: enq reports push (true) vs drain (false) of a
	// frame of flow; depth is the queue length after the operation.
	Trace func(enq bool, flow FlowID, depth int)
}

// sendEntry is one NIC queue entry: a flow cursor, which cuts the flow's
// next frame or train only when the NIC pulls, or (retx non-nil) one
// queued retransmit.
type sendEntry struct {
	flow  *Flow
	seq   int64 // index of the next frame to cut
	left  int64 // bytes not yet cut
	train int   // the train length in force when the flow was queued
	retx  *FrameCtx
}

// Host is one node's end system: NIC send queue plus receive side.
type Host struct {
	node int
	eng  *sim.Engine
	cfg  Config
	cb   Callbacks

	sendQ   fifo.Queue[sendEntry]
	queued  int // frames and trains still in sendQ
	free    []*FrameCtx
	nicBusy bool
	paused  bool
	onDone  func(*Flow)
}

// SetPaused applies fabric backpressure to the NIC: a paused NIC finishes
// the in-flight frame but injects nothing further until released.
func (h *Host) SetPaused(paused bool) {
	if h.paused == paused {
		return
	}
	h.paused = paused
	if !paused {
		h.pump()
	}
}

// New builds a host for node; onFlowDone (optional) fires at flow
// completion.
func New(node int, eng *sim.Engine, cfg Config, cb Callbacks, onFlowDone func(*Flow)) *Host {
	if cfg.NICRate <= 0 {
		panic("host: invalid config")
	}
	if cb.Inject == nil {
		panic("host: Inject callback required")
	}
	return &Host{node: node, eng: eng, cfg: cfg, cb: cb, onDone: onFlowDone}
}

// StartFlow begins transmitting a flow from this host. The flow must
// originate here. It queues one cursor that cuts the flow into MTU frames,
// coalescing up to TrainLength consecutive ones into a train, as the NIC
// pulls them.
func (h *Host) StartFlow(f *Flow) {
	if f.Src != h.node {
		panic(fmt.Sprintf("host %d: flow %d originates at %d", h.node, f.ID, f.Src))
	}
	if f.Bytes <= 0 {
		panic(fmt.Sprintf("host: flow %d has no bytes", f.ID))
	}
	f.started = h.eng.Now()
	train := max(h.cfg.TrainLength, 1)
	per := int64(train) * netstack.MaxPayload
	n := int((f.Bytes + per - 1) / per)
	if h.cb.Trace != nil {
		for i := 1; i <= n; i++ {
			h.cb.Trace(true, f.ID, h.queued+i)
		}
	}
	h.queued += n
	h.sendQ.Push(sendEntry{flow: f, left: f.Bytes, train: train})
	h.pump()
}

// wireBits returns the line bits of a frame or train carrying payload
// bytes across members MTU-sliced frames.
func (h *Host) wireBits(payload, members int) int64 {
	if members <= 1 {
		return netstack.WireBitsForPayload(payload)
	}
	return netstack.WireBitsForTrain(payload)
}

// newCtx takes frame storage off the free list, or allocates fresh.
func (h *Host) newCtx() *FrameCtx {
	n := len(h.free)
	if n == 0 {
		return &FrameCtx{}
	}
	ctx := h.free[n-1]
	h.free = h.free[:n-1]
	return ctx
}

// cut takes the context of the next frame (or train) off the NIC queue:
// the head's retransmit, or the next cut of the head's flow.
func (h *Host) cut() *FrameCtx {
	e := h.sendQ.Front()
	if e.retx != nil {
		return h.sendQ.Pop().retx
	}
	const mtu = netstack.MaxPayload
	payload := min(int64(e.train)*mtu, e.left)
	members := (payload + mtu - 1) / mtu
	ctx := h.newCtx()
	ctx.Flow, ctx.Seq, ctx.PayloadBytes, ctx.Frames = e.flow, e.seq, int(payload), int(members)
	e.seq += members
	if e.left -= payload; e.left == 0 {
		h.sendQ.Pop()
	}
	return ctx
}

// pump drains the NIC queue at NICRate.
func (h *Host) pump() {
	if h.nicBusy || h.paused || h.queued == 0 {
		return
	}
	ctx := h.cut()
	h.queued--
	if h.cb.Trace != nil {
		h.cb.Trace(false, ctx.Flow.ID, h.queued)
	}
	fr := &ctx.frame
	*fr = switching.Frame{
		SrcNode:  ctx.Flow.Src,
		DstNode:  ctx.Flow.Dst,
		DataBits: h.wireBits(ctx.PayloadBytes, ctx.Frames),
		FlowID:   uint64(ctx.Flow.ID),
		Injected: h.eng.Now(),
		Frames:   ctx.Frames,
		Meta:     ctx,
	}
	h.nicBusy = true
	h.eng.PostAfter(sim.Transmission(fr.DataBits, h.cfg.NICRate), (*nicTx)(h), 0, fr)
}

// nicTx is the nic-tx event: frame x has finished serializing out of the
// NIC and enters the fabric.
type nicTx Host

func (n *nicTx) Handle(_ int, x any) {
	h := (*Host)(n)
	h.cb.Inject(x.(*switching.Frame))
	h.nicBusy = false
	h.pump()
}

// Deliver is called by the fabric when a frame reaches this host's NIC.
// Corrupt frames (uncorrectable FEC upstream, caught by the final FCS
// check) trigger a NACK to the sender, which retransmits.
func (h *Host) Deliver(fr *switching.Frame, sender *Host) {
	ctx := fr.Meta.(*FrameCtx)
	if fr.DstNode != h.node {
		panic(fmt.Sprintf("host %d: misdelivered frame for %d", h.node, fr.DstNode))
	}
	if ctx.Corrupt {
		// A corrupt train NACKs and resends whole: the members shared one
		// wire event, so corruption poisons all of them together.
		delay := sim.Duration(0)
		if h.cb.NACKDelay != nil {
			delay = h.cb.NACKDelay(h.node, fr.SrcNode)
		}
		sender.Retransmit(ctx, delay)
		return
	}
	flow := ctx.Flow
	flow.ackedBytes += int64(ctx.PayloadBytes)
	if !flow.done && flow.ackedBytes >= flow.Bytes {
		flow.done = true
		flow.finished = h.eng.Now()
		if h.onDone != nil {
			h.onDone(flow)
		}
	}
	// The frame is consumed: nothing reads it or its context again.
	*ctx = FrameCtx{}
	sender.free = append(sender.free, ctx)
}

// Retransmit schedules a resend of the frame described by ctx after delay.
// It is the recovery path for both receiver NACKs (corrupt frames) and
// fabric drops. A frame exceeding MaxRetries marks the flow failed.
func (h *Host) Retransmit(ctx *FrameCtx, delay sim.Duration) {
	if ctx.Flow.Src != h.node {
		panic(fmt.Sprintf("host %d: retransmit of foreign flow %d", h.node, ctx.Flow.ID))
	}
	ctx.Retries++
	if ctx.Retries > MaxRetries {
		ctx.Flow.failed = true
		return
	}
	h.eng.After(delay, "retx", func() {
		ctx.Flow.retx++
		// A new context: the old frame may still be in flight.
		fresh := h.newCtx()
		fresh.Flow, fresh.Seq, fresh.PayloadBytes, fresh.Frames, fresh.Retries =
			ctx.Flow, ctx.Seq, ctx.PayloadBytes, ctx.Frames, ctx.Retries
		h.sendQ.Push(sendEntry{retx: fresh})
		h.queued++
		if h.cb.Trace != nil {
			h.cb.Trace(true, ctx.Flow.ID, h.queued)
		}
		h.pump()
	})
}

// SetTrainLength changes the NIC's coalescing limit for flows queued from
// now on. In-flight and already-queued frames keep their shape: a queued
// flow's cursor keeps the train length it was queued with.
// The fabric drops every NIC to per-frame granularity when a run turns
// on per-frame observation such as BER injection.
func (h *Host) SetTrainLength(n int) {
	if n < 1 {
		n = 1
	}
	h.cfg.TrainLength = n
}
