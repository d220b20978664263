package host

import (
	"slices"
	"testing"

	"rackfab/internal/netstack"
	"rackfab/internal/sim"
	"rackfab/internal/switching"
)

// loopback wires two hosts through a zero-latency "fabric" that delivers
// frames after a fixed delay, optionally corrupting selected sequences once.
type loopback struct {
	eng         *sim.Engine
	hosts       map[int]*Host
	delay       sim.Duration
	corruptSeqs map[int64]bool // first transmission of these seqs is corrupted
	sent        []int64        // Seq of every frame the NICs injected, in order
	completed   []*Flow
}

func newLoopback(delay sim.Duration) *loopback {
	lb := &loopback{eng: sim.New(), hosts: map[int]*Host{}, delay: delay, corruptSeqs: map[int64]bool{}}
	for _, node := range []int{0, 1} {
		node := node
		lb.hosts[node] = New(node, lb.eng, DefaultConfig(), Callbacks{
			Inject: func(f *switching.Frame) {
				ctx := f.Meta.(*FrameCtx)
				lb.sent = append(lb.sent, ctx.Seq)
				if ctx.Retries == 0 && lb.corruptSeqs[ctx.Seq] {
					ctx.Corrupt = true
				}
				lb.eng.After(lb.delay, "wire", func() {
					lb.hosts[f.DstNode].Deliver(f, lb.hosts[f.SrcNode])
				})
			},
			NACKDelay: func(src, dst int) sim.Duration { return lb.delay },
		}, func(fl *Flow) { lb.completed = append(lb.completed, fl) })
	}
	return lb
}

func TestFlowCompletes(t *testing.T) {
	lb := newLoopback(10 * sim.Microsecond)
	flow := &Flow{ID: 1, Src: 0, Dst: 1, Bytes: 4500} // 3 MTU frames
	lb.eng.At(0, "start", func() { lb.hosts[0].StartFlow(flow) })
	if err := lb.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !flow.Done() {
		t.Fatal("flow incomplete")
	}
	if len(lb.completed) != 1 || lb.completed[0] != flow {
		t.Fatal("completion callback missed")
	}
	if !slices.Equal(lb.sent, []int64{0, 1, 2}) {
		t.Fatalf("sent seqs = %v, want 3 MTU frames", lb.sent)
	}
	// FCT ≥ wire delay + serialization of 3 frames at 100G.
	if flow.FCT() < 10*sim.Microsecond {
		t.Fatalf("FCT = %v", flow.FCT())
	}
	if flow.AckedBytes() != 4500 {
		t.Fatalf("bytes = %d", flow.AckedBytes())
	}
}

func TestNICSerializesAtRate(t *testing.T) {
	lb := newLoopback(0)
	flow := &Flow{ID: 1, Src: 0, Dst: 1, Bytes: 15000} // 10 frames
	lb.eng.At(0, "start", func() { lb.hosts[0].StartFlow(flow) })
	if err := lb.eng.Run(); err != nil {
		t.Fatal(err)
	}
	// 10 full frames at 100G: 1538B+IFG... WireBitsForPayload(1500)=1538*8
	// per frame ≈ 123.04 ns each; total ≈ 1.2304 µs.
	wantPerFrame := sim.Transmission(netstack.WireBitsForPayload(1500), 100e9)
	want := sim.Duration(10 * int64(wantPerFrame))
	got := flow.FCT()
	if got < want || got > want+sim.Nanosecond*10 {
		t.Fatalf("FCT = %v, want ≈%v", got, want)
	}
}

func TestCorruptFrameRetransmitted(t *testing.T) {
	lb := newLoopback(5 * sim.Microsecond)
	lb.corruptSeqs[1] = true // poison the middle frame once
	flow := &Flow{ID: 1, Src: 0, Dst: 1, Bytes: 4500}
	lb.eng.At(0, "start", func() { lb.hosts[0].StartFlow(flow) })
	if err := lb.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !flow.Done() {
		t.Fatal("flow incomplete after corruption")
	}
	if flow.Retransmits() != 1 {
		t.Fatalf("retransmits = %d", flow.Retransmits())
	}
	// Only the poisoned frame is resent.
	if !slices.Equal(lb.sent, []int64{0, 1, 2, 1}) {
		t.Fatalf("sent seqs = %v", lb.sent)
	}
	// Delivered bytes must still be exact.
	if flow.AckedBytes() != 4500 {
		t.Fatalf("bytes = %d", flow.AckedBytes())
	}
}

func TestShortFlowSingleFrame(t *testing.T) {
	lb := newLoopback(0)
	flow := &Flow{ID: 1, Src: 0, Dst: 1, Bytes: 100}
	lb.eng.At(0, "start", func() { lb.hosts[0].StartFlow(flow) })
	if err := lb.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(lb.sent) != 1 || !flow.Done() {
		t.Fatalf("frames=%d done=%v", len(lb.sent), flow.Done())
	}
}

func TestFCTPanicsUnfinished(t *testing.T) {
	flow := &Flow{ID: 1, Src: 0, Dst: 1, Bytes: 10}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	flow.FCT()
}

func TestStartFlowValidation(t *testing.T) {
	lb := newLoopback(0)
	defer func() {
		if recover() == nil {
			t.Fatal("foreign flow accepted")
		}
	}()
	lb.hosts[0].StartFlow(&Flow{ID: 1, Src: 1, Dst: 0, Bytes: 10})
}

func TestNICPauseHoldsInjection(t *testing.T) {
	lb := newLoopback(0)
	h := lb.hosts[0]
	flow := &Flow{ID: 1, Src: 0, Dst: 1, Bytes: 15000} // 10 frames
	lb.eng.At(0, "start", func() {
		h.SetPaused(true)
		h.StartFlow(flow)
	})
	lb.eng.At(sim.Time(100*sim.Microsecond), "release", func() {
		if len(lb.sent) != 0 {
			t.Errorf("%d frames injected during pause", len(lb.sent))
		}
		h.SetPaused(false)
	})
	if err := lb.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !flow.Done() || len(lb.sent) != 10 {
		t.Fatalf("done=%v after release with %d of 10 frames injected", flow.Done(), len(lb.sent))
	}
	// Everything serialized after the 100 µs hold.
	if flow.FCT() < 100*sim.Microsecond {
		t.Fatalf("FCT %v ignores the pause", flow.FCT())
	}
}

func TestRetransmitCapFailsFlow(t *testing.T) {
	lb := newLoopback(0)
	flow := &Flow{ID: 1, Src: 0, Dst: 1, Bytes: 100}
	ctx := &FrameCtx{Flow: flow, Seq: 0, PayloadBytes: 100, Retries: MaxRetries}
	lb.eng.At(0, "retx", func() {
		lb.hosts[0].Retransmit(ctx, 0)
	})
	if err := lb.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !flow.Failed() {
		t.Fatal("flow not marked failed past MaxRetries")
	}
	// Remaining/AckedBytes accessors.
	if flow.Remaining() != 100 || flow.AckedBytes() != 0 {
		t.Fatalf("remaining=%d acked=%d", flow.Remaining(), flow.AckedBytes())
	}
}

func TestRetransmitForeignFlowPanics(t *testing.T) {
	lb := newLoopback(0)
	flow := &Flow{ID: 1, Src: 1, Dst: 0, Bytes: 100}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	lb.hosts[0].Retransmit(&FrameCtx{Flow: flow}, 0)
}

func TestTwoFlowsShareNIC(t *testing.T) {
	lb := newLoopback(0)
	f1 := &Flow{ID: 1, Src: 0, Dst: 1, Bytes: 150000}
	f2 := &Flow{ID: 2, Src: 0, Dst: 1, Bytes: 1500}
	lb.eng.At(0, "start", func() {
		lb.hosts[0].StartFlow(f1)
		lb.hosts[0].StartFlow(f2)
	})
	if err := lb.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !f1.Done() || !f2.Done() {
		t.Fatal("flows incomplete")
	}
	// FIFO NIC: the small flow queued behind the big one finishes last.
	if f2.FCT() < f1.FCT() {
		t.Fatal("queued flow finished before the head flow")
	}
}

// nicEvent is one observation of the NIC trace hook.
type nicEvent struct {
	enq   bool
	flow  FlowID
	depth int
}

// TestNICTraceDepths pins the NIC queue's trace: StartFlow reports one
// enqueue per frame with depths d+1 … d+n, each pull reports a dequeue
// with the count left, and a retransmit joins the tail of the queue,
// behind a flow queued before it.
func TestNICTraceDepths(t *testing.T) {
	lb := newLoopback(0) // a corrupt frame is NACKed the instant it leaves
	var got []nicEvent
	h := lb.hosts[0]
	h.cb.Trace = func(enq bool, flow FlowID, depth int) { got = append(got, nicEvent{enq, flow, depth}) }
	lb.corruptSeqs[1] = true // flow 1's second frame is resent once
	f1 := &Flow{ID: 1, Src: 0, Dst: 1, Bytes: 4500}
	f2 := &Flow{ID: 2, Src: 0, Dst: 1, Bytes: 1500}
	lb.eng.At(0, "start", func() {
		h.StartFlow(f1)
		h.StartFlow(f2)
	})
	if err := lb.eng.Run(); err != nil {
		t.Fatal(err)
	}
	want := []nicEvent{
		{true, 1, 1}, {true, 1, 2}, {true, 1, 3}, {false, 1, 2}, // f1 queued, frame 0 pulled
		{true, 2, 3},                 // f2 queued behind it
		{false, 1, 2}, {false, 1, 1}, // frames 1 and 2 pulled; 1 is NACKed
		{true, 1, 2}, // the resend joins behind f2
		{false, 2, 1}, {false, 1, 0},
	}
	if !slices.Equal(got, want) {
		t.Fatalf("NIC trace\n got %v\nwant %v", got, want)
	}
	if !slices.Equal(lb.sent, []int64{0, 1, 2, 0, 1}) {
		t.Fatalf("sent seqs = %v", lb.sent)
	}
	if !f1.Done() || !f2.Done() || f1.Retransmits() != 1 {
		t.Fatalf("done %v/%v, retransmits %d", f1.Done(), f2.Done(), f1.Retransmits())
	}
}

// TestSetTrainLengthKeepsQueuedShape checks that a flow already queued
// keeps the train length it was queued with, even though the NIC cuts its
// later trains after SetTrainLength changed the limit.
func TestSetTrainLengthKeepsQueuedShape(t *testing.T) {
	eng := sim.New()
	type shape struct {
		flow     uint64
		seq      int64
		frames   int
		payload  int
		dataBits int64
	}
	var got []shape
	var h *Host
	h = New(0, eng, DefaultConfig(), Callbacks{
		Inject: func(f *switching.Frame) {
			ctx := f.Meta.(*FrameCtx)
			got = append(got, shape{f.FlowID, ctx.Seq, f.Frames, ctx.PayloadBytes, f.DataBits})
		},
	}, nil)
	eng.At(0, "start", func() {
		h.SetTrainLength(4)
		h.StartFlow(&Flow{ID: 1, Src: 0, Dst: 1, Bytes: 15000}) // 10 MTU frames
		h.SetTrainLength(1)
		h.StartFlow(&Flow{ID: 2, Src: 0, Dst: 1, Bytes: 2000})
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	want := []shape{
		{1, 0, 4, 6000, netstack.WireBitsForTrain(1500, 6000)},
		{1, 4, 4, 6000, netstack.WireBitsForTrain(1500, 6000)},
		{1, 8, 2, 3000, netstack.WireBitsForTrain(1500, 3000)},
		{2, 0, 1, 1500, netstack.WireBitsForPayload(1500)},
		{2, 1, 1, 500, netstack.WireBitsForPayload(500)},
	}
	if !slices.Equal(got, want) {
		t.Fatalf("injected frames\n got %v\nwant %v", got, want)
	}
}
