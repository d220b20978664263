package switching

import (
	"testing"

	"rackfab/internal/sim"
)

// harness wires a switch to scripted callbacks.
type harness struct {
	eng     *sim.Engine
	sw      *Switch
	sent    []sentRec
	dropped []string
	paused  map[int][]bool
	forward func(f *Frame) (int, bool)
	txTime  sim.Duration
}

type sentRec struct {
	port int
	id   uint64
	at   sim.Time
}

func newHarness(ports int, cfg Config) *harness {
	h := &harness{eng: sim.NewSized(256), paused: map[int][]bool{}, txTime: 100 * sim.Nanosecond}
	h.forward = func(f *Frame) (int, bool) { return f.DstNode % ports, true }
	cfg.Ports = ports
	h.sw = New(h.eng, cfg, Callbacks{
		Forward: func(f *Frame) (int, bool) { return h.forward(f) },
		Transmit: func(port int, f *Frame) sim.Duration {
			h.sent = append(h.sent, sentRec{port, f.FlowID, h.eng.Now()})
			return h.txTime
		},
		Drop:  func(f *Frame, reason string) { h.dropped = append(h.dropped, reason) },
		Pause: func(port int, p bool) { h.paused[port] = append(h.paused[port], p) },
	})
	return h
}

func frame(id uint64, dst int) *Frame {
	return &Frame{DstNode: dst, DataBits: 12000, FlowID: id, Frames: 1}
}

func TestSingleFrameLatency(t *testing.T) {
	cfg := DefaultConfig(4)
	h := newHarness(4, cfg)
	h.eng.At(0, "inject", func() { h.sw.Inject(0, frame(1, 1)) })
	if err := h.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(h.sent) != 1 {
		t.Fatalf("sent %d frames", len(h.sent))
	}
	// An uncontended frame leaves exactly one pipeline latency after inject.
	if h.sent[0].at != sim.Time(cfg.PipelineLatency) {
		t.Fatalf("egress at %v, want %v", h.sent[0].at, cfg.PipelineLatency)
	}
}

func TestOutputSerializesInOrder(t *testing.T) {
	h := newHarness(4, DefaultConfig(4))
	h.eng.At(0, "inject", func() {
		h.sw.Inject(0, frame(1, 1))
		h.sw.Inject(0, frame(2, 1))
		h.sw.Inject(0, frame(3, 1))
	})
	if err := h.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(h.sent) != 3 {
		t.Fatalf("sent %d", len(h.sent))
	}
	// Same input, same output: FIFO, spaced by txTime.
	for i := 1; i < 3; i++ {
		if h.sent[i].id != uint64(i+1) {
			t.Fatalf("order broken: %v", h.sent)
		}
		gap := h.sent[i].at.Sub(h.sent[i-1].at)
		if gap != 100*sim.Nanosecond {
			t.Fatalf("gap %v, want txTime", gap)
		}
	}
}

func TestDistinctOutputsParallel(t *testing.T) {
	h := newHarness(4, DefaultConfig(4))
	h.eng.At(0, "inject", func() {
		h.sw.Inject(0, frame(1, 1))
		h.sw.Inject(1, frame(2, 2))
	})
	if err := h.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(h.sent) != 2 {
		t.Fatalf("sent %d", len(h.sent))
	}
	// No head-of-line blocking across outputs: both leave at pipeline time.
	if h.sent[0].at != h.sent[1].at {
		t.Fatalf("outputs serialized: %v", h.sent)
	}
}

func TestRoundRobinFairness(t *testing.T) {
	h := newHarness(4, DefaultConfig(4))
	// Two inputs contend for output 1 with two frames each.
	h.eng.At(0, "inject", func() {
		h.sw.Inject(0, frame(10, 1))
		h.sw.Inject(0, frame(11, 1))
		h.sw.Inject(2, frame(20, 1))
		h.sw.Inject(2, frame(21, 1))
	})
	if err := h.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(h.sent) != 4 {
		t.Fatalf("sent %d", len(h.sent))
	}
	// Round robin must interleave the inputs rather than draining one.
	first := h.sent[0].id / 10
	second := h.sent[1].id / 10
	if first == second {
		t.Fatalf("arbiter drained one input: %v", h.sent)
	}
}

func TestNoRouteDrops(t *testing.T) {
	h := newHarness(4, DefaultConfig(4))
	h.forward = func(f *Frame) (int, bool) { return 0, false }
	h.eng.At(0, "inject", func() { h.sw.Inject(0, frame(1, 1)) })
	if err := h.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(h.dropped) != 1 || h.dropped[0] != "no-route" {
		t.Fatalf("drops = %v", h.dropped)
	}
}

func TestVOQOverflowDrops(t *testing.T) {
	h := newHarness(2, DefaultConfig(2))
	h.txTime = 10 * sim.Microsecond // slow drain
	h.eng.At(0, "inject", func() {
		for i := 0; i < 70; i++ {
			h.sw.Inject(0, frame(uint64(i), 1))
		}
	})
	if err := h.eng.Run(); err != nil {
		t.Fatal(err)
	}
	overflow := 0
	for _, r := range h.dropped {
		if r == "voq-overflow" {
			overflow++
		}
	}
	if overflow != 6 {
		t.Fatalf("overflow drops = %d, want 6 (cap %d)", overflow, VOQCapacity)
	}
}

func TestPauseWatermarks(t *testing.T) {
	h := newHarness(2, DefaultConfig(2))
	h.txTime = sim.Microsecond
	h.eng.At(0, "inject", func() {
		for i := 0; i < PauseHighWatermark+2; i++ {
			h.sw.Inject(0, frame(uint64(i), 1))
		}
	})
	if err := h.eng.Run(); err != nil {
		t.Fatal(err)
	}
	events := h.paused[0]
	if len(events) < 2 {
		t.Fatalf("pause events = %v", events)
	}
	if events[0] != true {
		t.Fatal("first event should pause")
	}
	if events[len(events)-1] != false {
		t.Fatal("should resume after draining")
	}
}

func TestOutputPauseHolds(t *testing.T) {
	h := newHarness(2, DefaultConfig(2))
	h.eng.At(0, "setup", func() {
		h.sw.SetOutputPaused(1, true)
		h.sw.Inject(0, frame(1, 1))
	})
	h.eng.At(sim.Time(50*sim.Microsecond), "release", func() {
		h.sw.SetOutputPaused(1, false)
	})
	if err := h.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(h.sent) != 1 {
		t.Fatalf("sent %d", len(h.sent))
	}
	if h.sent[0].at != sim.Time(50*sim.Microsecond) {
		t.Fatalf("frame left at %v despite pause until 50us", h.sent[0].at)
	}
}

func TestQueueDelayStats(t *testing.T) {
	cfg := DefaultConfig(2)
	h := newHarness(2, cfg)
	h.eng.At(0, "inject", func() {
		h.sw.Inject(0, frame(1, 1))
		h.sw.Inject(0, frame(2, 1))
	})
	if err := h.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(h.sent) != 2 {
		t.Fatalf("forwarded %d frames, want 2", len(h.sent))
	}
	// Both frames were eligible one pipeline latency after the inject at
	// 0; the second waited in its VOQ for at least the first's txTime.
	if wait := h.sent[1].at.Sub(sim.Time(cfg.PipelineLatency)); wait < h.txTime {
		t.Fatalf("second frame waited %v past eligibility, want ≥ %v", wait, h.txTime)
	}
}

func TestPauseWatchdogBreaksDeadlock(t *testing.T) {
	h := newHarness(2, DefaultConfig(2))
	h.eng.At(0, "setup", func() {
		// Downstream never releases: without the watchdog this frame
		// would be stranded forever (the PFC circular-wait pattern).
		h.sw.SetOutputPaused(1, true)
		h.sw.Inject(0, frame(1, 1))
	})
	if err := h.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(h.sent) != 1 {
		t.Fatalf("sent %d frames; watchdog never fired", len(h.sent))
	}
	if h.sent[0].at != sim.Time(100*sim.Microsecond) {
		t.Fatalf("watchdog released at %v, want 100us", h.sent[0].at)
	}
}

func TestPauseWatchdogNotTrippedByNormalRelease(t *testing.T) {
	h := newHarness(2, DefaultConfig(2))
	h.eng.At(0, "setup", func() {
		h.sw.SetOutputPaused(1, true)
		h.sw.Inject(0, frame(1, 1))
	})
	h.eng.At(sim.Time(10*sim.Microsecond), "release", func() {
		h.sw.SetOutputPaused(1, false)
	})
	// A re-pause before the first pause's watchdog is due: that stale
	// watchdog (100us) must not release it; the re-pause's own (150us)
	// does.
	h.eng.At(sim.Time(50*sim.Microsecond), "repause", func() {
		h.sw.SetOutputPaused(1, true)
		h.sw.Inject(0, frame(2, 1))
	})
	if err := h.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(h.sent) != 2 || h.sent[0].at != sim.Time(10*sim.Microsecond) {
		t.Fatalf("sent = %v", h.sent)
	}
	if h.sent[1].at != sim.Time(150*sim.Microsecond) {
		t.Fatalf("re-paused frame left at %v, want 150us (the re-pause's own watchdog)", h.sent[1].at)
	}
}

func TestModeString(t *testing.T) {
	if CutThrough.String() != "cut-through" || StoreAndForward.String() != "store-and-forward" {
		t.Fatal("mode names broken")
	}
}

func TestInvalidConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(sim.NewSized(256), Config{Ports: 0}, Callbacks{
		Forward:  func(f *Frame) (int, bool) { return 0, true },
		Transmit: func(int, *Frame) sim.Duration { return 1 },
	})
}
