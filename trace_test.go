package rackfab

import (
	"bytes"
	"errors"
	"testing"
	"time"
)

// traceRun builds a traced cluster on the given engine, runs a fixed
// incast, and returns both export forms plus the Trace handle.
func traceRun(t *testing.T, engine Engine) (string, string, *Trace) {
	t.Helper()
	c, err := New(Config{
		Topology: Grid, Width: 4, Height: 4,
		Seed: 7, Engine: engine,
		Trace: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	specs := IncastTraffic(c, 5, 8, 32<<10)
	if _, err := c.Inject(specs); err != nil {
		t.Fatal(err)
	}
	if err := c.RunUntilDone(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	tr := c.Trace()
	if tr == nil {
		t.Fatal("Config.Trace set but Cluster.Trace() == nil")
	}
	var txt, js bytes.Buffer
	if err := tr.WriteText(&txt); err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	return txt.String(), js.String(), tr
}

// TestTraceDeterministic is the flight recorder's core contract: two
// identically configured runs export byte-identical traces — text form
// (the determinism-fingerprint bytes) and Perfetto JSON alike — on both
// engines. Sim-time stamps leave no room for wall clocks or scheduling to
// leak in.
func TestTraceDeterministic(t *testing.T) {
	for _, engine := range []Engine{EnginePacket, EngineFluid} {
		t.Run(string(engine), func(t *testing.T) {
			t1, j1, tr := traceRun(t, engine)
			t2, j2, _ := traceRun(t, engine)
			if tr.Events() == 0 {
				t.Fatal("traced run recorded no events")
			}
			if t1 != t2 {
				t.Error("text export differs across identical runs")
			}
			if j1 != j2 {
				t.Error("JSON export differs across identical runs")
			}
		})
	}
}

// TestTraceDisabledIsNil holds the zero-cost-off contract at the façade:
// without Config.Trace the cluster carries no recorder, Trace() returns
// nil, and the nil handle still exports valid (empty) documents.
func TestTraceDisabledIsNil(t *testing.T) {
	c, err := New(Config{Topology: Grid, Width: 3, Height: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	tr := c.Trace()
	if tr != nil {
		t.Fatal("tracing off but Trace() != nil")
	}
	if tr.Events() != 0 || tr.Overwritten() != 0 {
		t.Fatal("nil Trace leaked counts")
	}
	var buf bytes.Buffer
	if err := tr.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
}

// TestPeakQueueDelayAcrossEngines pins the façade split: the packet
// datapath populates the worst per-hop queueing delay under an incast
// (frames queue at the shared destination), while the fluid engine —
// which has no queues — refuses with ErrPacketOnly.
func TestPeakQueueDelayAcrossEngines(t *testing.T) {
	c, err := New(Config{Topology: Grid, Width: 4, Height: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Inject(IncastTraffic(c, 5, 8, 64<<10)); err != nil {
		t.Fatal(err)
	}
	if err := c.RunUntilDone(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	peak, err := c.PeakQueueDelay()
	if err != nil {
		t.Fatal(err)
	}
	if peak <= 0 {
		t.Fatalf("packet incast PeakQueueDelay = %v, want > 0", peak)
	}

	f, err := New(Config{Topology: Grid, Width: 4, Height: 4, Seed: 3, Engine: EngineFluid})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.PeakQueueDelay(); !errors.Is(err, ErrPacketOnly) {
		t.Fatalf("fluid PeakQueueDelay error = %v, want ErrPacketOnly", err)
	}
}
