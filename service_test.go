package rackfab

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// svcClusterConfig is the shared world of the service-mode tests: a fluid
// 4×4 grid with the flight recorder on, so split-run equality can compare
// trace bytes as well as fingerprints.
func svcClusterConfig() Config {
	return Config{
		Topology: Grid, Width: 4, Height: 4,
		Engine: EngineFluid, Seed: 9,
		Trace: &TraceConfig{},
	}
}

// svcFlaps is the fault timeline the service soak runs under: Poisson link
// flaps that keep churning through the whole window, including across the
// checkpoint instant.
func svcFlaps(c *Cluster) *FaultSchedule {
	return PoissonFlaps(c, FlapConfig{
		Flaps:      6,
		Start:      2 * time.Millisecond,
		MeanGap:    4 * time.Millisecond,
		MeanOutage: 2 * time.Millisecond,
	})
}

// svcServeConfig returns the service load declaration per arrival process.
func svcServeConfig(process string) ServeConfig {
	return ServeConfig{
		Tick: 500 * time.Microsecond,
		Arrivals: ArrivalSpec{
			Process: process,
			Seed:    7,
			Rate:    40000, // flows/s
			Sizes:   "pareto:20000:1.4:2000000",
		},
	}
}

// serviceTraceText exports the cluster's flight-recorder trace text.
func serviceTraceText(t *testing.T, c *Cluster) string {
	t.Helper()
	var buf bytes.Buffer
	if err := c.Trace().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestServiceCheckpointSplitRunBitIdentical is the tentpole acceptance
// gate: a service run split across a Checkpoint/ResumeService boundary —
// with open-loop arrivals and a PoissonFlaps schedule active — must be
// byte-identical to the unbroken run, in both the service fingerprint and
// the flight-recorder trace text.
func TestServiceCheckpointSplitRunBitIdentical(t *testing.T) {
	for _, process := range []string{"poisson", "markov"} {
		t.Run(process, func(t *testing.T) {
			mid, end := 10*time.Millisecond, 20*time.Millisecond

			// Unbroken run.
			c1, err := New(svcClusterConfig())
			if err != nil {
				t.Fatal(err)
			}
			if err := c1.ApplyFaults(svcFlaps(c1)); err != nil {
				t.Fatal(err)
			}
			s1, err := c1.Serve(svcServeConfig(process))
			if err != nil {
				t.Fatal(err)
			}
			if err := s1.RunUntil(end); err != nil {
				t.Fatal(err)
			}
			wantFP, wantTrace := s1.Fingerprint(), serviceTraceText(t, c1)
			wantCkpt, err := s1.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}

			// Split run: same world to mid, checkpoint, resume, continue.
			c2, err := New(svcClusterConfig())
			if err != nil {
				t.Fatal(err)
			}
			if err := c2.ApplyFaults(svcFlaps(c2)); err != nil {
				t.Fatal(err)
			}
			s2, err := c2.Serve(svcServeConfig(process))
			if err != nil {
				t.Fatal(err)
			}
			if err := s2.RunUntil(mid); err != nil {
				t.Fatal(err)
			}
			ckpt, err := s2.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			// Serialization must be stable: checkpointing twice is identical.
			again, err := s2.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(ckpt, again) {
				t.Fatal("two checkpoints of the same state differ")
			}

			s3, err := ResumeService(svcClusterConfig(), svcServeConfig(process), ckpt)
			if err != nil {
				t.Fatal(err)
			}
			if got := s3.Fingerprint(); got != s2.Fingerprint() {
				t.Fatalf("restored fingerprint diverged at the boundary:\n--- original ---\n%s--- restored ---\n%s", s2.Fingerprint(), got)
			}
			if err := s3.RunUntil(end); err != nil {
				t.Fatal(err)
			}
			if got := s3.Fingerprint(); got != wantFP {
				t.Fatalf("split run diverged:\n--- unbroken ---\n%s--- split ---\n%s", wantFP, got)
			}
			if got := serviceTraceText(t, s3.Cluster()); got != wantTrace {
				t.Fatal("split-run trace text diverged from the unbroken run")
			}
			gotCkpt, err := s3.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gotCkpt, wantCkpt) {
				t.Fatal("end-of-run checkpoint bytes diverged between unbroken and split runs")
			}
		})
	}
}

// TestServiceSoakRetainedBounded is the quick soak gate: 256 nodes, ten
// minutes of simulated open-loop load, and the engine's retained flow-state
// count must stay flat — bounded by in-flight traffic, not by soak length.
func TestServiceSoakRetainedBounded(t *testing.T) {
	c, err := New(Config{
		Topology: Grid, Width: 16, Height: 16,
		Engine: EngineFluid, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := c.Serve(ServeConfig{
		Tick: 250 * time.Millisecond,
		Arrivals: ArrivalSpec{
			Seed:  11,
			Rate:  10, // flows/s for 10 simulated minutes ≈ 6k flows total
			Sizes: "fixed:1000000",
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunUntil(10 * time.Minute); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Injected < 5000 {
		t.Fatalf("soak injected only %d flows", st.Injected)
	}
	if st.Completed+int64(st.Retained) < st.Injected {
		t.Fatalf("flows lost: injected %d, completed %d, retained %d", st.Injected, st.Completed, st.Retained)
	}
	// The bound: per-flow engine state must track in-flight load (tens of
	// flows at this rate), not the thousands injected over the soak.
	if st.RetainedPeak > 100 {
		t.Fatalf("retained peak %d — flow state is accumulating (injected %d)", st.RetainedPeak, st.Injected)
	}
	if st.Retired < st.Injected-int64(st.RetainedPeak) {
		t.Fatalf("retired %d of %d — retirement is not keeping up", st.Retired, st.Injected)
	}
	if st.AttainPct <= 0 || st.P99FCT <= 0 {
		t.Fatalf("soak produced empty statistics: %+v", st)
	}
}

// TestPacketServiceHeapFlat: on the packet engine, service-mode state is
// bounded for all state, not only the retained-flow count. About 20k more
// flows served over one simulated second must leave the live heap where
// the warm-up left it.
func TestPacketServiceHeapFlat(t *testing.T) {
	c, err := New(Config{Topology: Grid, Width: 4, Height: 4, Engine: EnginePacket, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	s, err := c.Serve(ServeConfig{
		Tick:     time.Millisecond,
		Arrivals: ArrivalSpec{Seed: 8, Rate: 20000, Sizes: "fixed:2000"},
	})
	if err != nil {
		t.Fatal(err)
	}
	heap := func() int64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	if err := s.RunUntil(50 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	warm := s.Stats().Injected
	before := heap()
	if err := s.RunUntil(1050 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	grown := heap() - before
	runtime.KeepAlive(s)
	if served := s.Stats().Injected - warm; served < 15000 {
		t.Fatalf("served only %d flows after warm-up", served)
	}
	if grown >= 256<<10 {
		t.Fatalf("serving %d flows grew the live heap by %d KB, want < 256 KB",
			s.Stats().Injected-warm, grown>>10)
	}
}

// TestServeBothEngines: the same declarative service config drives either
// engine; both complete flows and report sane streaming statistics.
func TestServeBothEngines(t *testing.T) {
	for _, engine := range []Engine{EnginePacket, EngineFluid} {
		t.Run(string(engine), func(t *testing.T) {
			c, err := New(Config{
				Topology: Grid, Width: 4, Height: 4,
				Engine: engine, Seed: 2,
				Control: ControlConfig{Enabled: false},
			})
			if err != nil {
				t.Fatal(err)
			}
			s, err := c.Serve(ServeConfig{
				Tick: time.Millisecond,
				Arrivals: ArrivalSpec{
					Seed:  5,
					Rate:  2000,
					Sizes: "fixed:20000",
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := s.RunUntil(10 * time.Millisecond); err != nil {
				t.Fatal(err)
			}
			st := s.Stats()
			if st.Injected == 0 || st.Completed == 0 {
				t.Fatalf("service made no progress: %+v", st)
			}
			if st.Completed > 0 && st.P99FCT <= 0 {
				t.Fatalf("completed flows but empty FCT stats: %+v", st)
			}
			if st.RetainedPeak >= int(st.Injected) && st.Injected > 20 {
				t.Fatalf("no retirement happened: %+v", st)
			}
			if !strings.Contains(s.Fingerprint(), "injected=") {
				t.Fatal("fingerprint missing counters")
			}
		})
	}
}

// TestInjectMidRunHandleStability: on BOTH engines, handles returned
// before a mid-run Inject stay valid and complete after later batches
// land — on the fluid engine because batch-major IDs never renumber.
func TestInjectMidRunHandleStability(t *testing.T) {
	for _, engine := range []Engine{EnginePacket, EngineFluid} {
		t.Run(string(engine), func(t *testing.T) {
			c, err := New(Config{
				Topology: Grid, Width: 4, Height: 4,
				Engine: engine, Seed: 6,
				Control: ControlConfig{Enabled: false},
			})
			if err != nil {
				t.Fatal(err)
			}
			first, err := c.Inject(UniformTraffic(c, 20, 256<<10))
			if err != nil {
				t.Fatal(err)
			}
			if err := c.RunFor(30 * time.Microsecond); err != nil {
				t.Fatal(err)
			}
			var batches [][]*Flow
			for b := 0; b < 3; b++ {
				late, err := c.Inject(UniformTraffic(c, 10, 64<<10))
				if err != nil {
					t.Fatalf("mid-run inject %d: %v", b, err)
				}
				batches = append(batches, late)
				if err := c.RunFor(30 * time.Microsecond); err != nil {
					t.Fatal(err)
				}
			}
			if err := c.RunUntilDone(time.Second); err != nil {
				t.Fatal(err)
			}
			check := func(name string, flows []*Flow) {
				for i, f := range flows {
					if !f.Done() || f.Failed() {
						t.Fatalf("%s flow %d not completed after mid-run injects", name, i)
					}
					if fct, err := f.CompletionTime(); err != nil || fct <= 0 {
						t.Fatalf("%s flow %d: fct %v err %v", name, i, fct, err)
					}
				}
			}
			check("first-batch", first)
			for b, late := range batches {
				check(fmt.Sprintf("late-batch-%d", b), late)
			}
			if got := c.Report().FlowsCompleted; got != 50 {
				t.Fatalf("completed %d flows, want 50", got)
			}
		})
	}
}

// TestRestoreGuards pins the checkpoint surface's error contract.
func TestRestoreGuards(t *testing.T) {
	cfg := svcClusterConfig()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := c.Serve(svcServeConfig("poisson"))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunUntil(2 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	ckpt, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}

	if _, err := ResumeService(cfg, svcServeConfig("poisson"), []byte("junk")); err == nil {
		t.Fatal("resume accepted junk bytes")
	}
	bad := cfg
	bad.Seed++
	if _, err := ResumeService(bad, svcServeConfig("poisson"), ckpt); err == nil {
		t.Fatal("resume accepted a different Config")
	}
	withFaults := cfg
	withFaults.Faults = NewFaultSchedule(FaultSpec{At: time.Millisecond, Kind: LinkDown, A: 0, B: 1})
	if _, err := ResumeService(withFaults, svcServeConfig("poisson"), ckpt); err == nil {
		t.Fatal("resume accepted cfg.Faults alongside the checkpointed schedule")
	}
	pkt := cfg
	pkt.Engine = EnginePacket
	pkt.Trace = nil
	if _, err := ResumeService(pkt, svcServeConfig("poisson"), ckpt); err == nil {
		t.Fatal("resume accepted the packet engine")
	}

	// Checkpoint is fluid-only, and available after RunPhases.
	cp, err := New(Config{Topology: Grid, Width: 4, Height: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cp.Checkpoint(); err == nil {
		t.Fatal("packet cluster accepted Checkpoint")
	}
	cf, err := New(Config{Topology: Grid, Width: 4, Height: 4, Engine: EngineFluid})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cf.RunPhases([][]FlowSpec{{{Src: 0, Dst: 5, Bytes: 1e4}}}, time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := cf.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint after RunPhases: %v", err)
	}
}

// TestRestoreRejectsCorruptCounts: each element count in a checkpoint —
// fault events, journal ops, an inject's specs — tampered to 0xFFFFFFFF
// must come back as an error from Restore and ResumeService instead of
// sizing an allocation from it.
func TestRestoreRejectsCorruptCounts(t *testing.T) {
	cfg := svcClusterConfig()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.ApplyFaults(svcFlaps(c)); err != nil {
		t.Fatal(err)
	}
	s, err := c.Serve(svcServeConfig("poisson"))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunUntil(2 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	svcCkpt, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	ckpt, err := c.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	// The cluster checkpoint is the tail of the service checkpoint.
	tail := len(svcCkpt) - len(ckpt)
	if tail < 0 || !bytes.Equal(svcCkpt[tail:], ckpt) {
		t.Fatal("service checkpoint does not end with the cluster checkpoint")
	}
	// Layout: magic, Config digest, fault-event count and events, op count,
	// then the first op's kind byte and (for an inject) its spec count.
	const eventsAt = len(ckptMagic) + 8
	nev := int(binary.LittleEndian.Uint32(ckpt[eventsAt:]))
	opsAt := eventsAt + 4 + nev*faultEventBytes
	if nev == 0 || opKind(ckpt[opsAt+4]) != opInject {
		t.Fatalf("want fault events and a journal opening with an inject (events %d, first op %d)", nev, ckpt[opsAt+4])
	}
	for _, tc := range []struct {
		name string
		at   int
	}{
		{"fault events", eventsAt},
		{"ops", opsAt},
		{"specs", opsAt + 5},
	} {
		bad := append([]byte(nil), ckpt...)
		binary.LittleEndian.PutUint32(bad[tc.at:], 0xFFFFFFFF)
		if _, err := Restore(cfg, bad); err == nil {
			t.Errorf("Restore accepted a corrupt %s count", tc.name)
		}
		badSvc := append(append([]byte(nil), svcCkpt[:tail]...), bad...)
		if _, err := ResumeService(cfg, svcServeConfig("poisson"), badSvc); err == nil {
			t.Errorf("ResumeService accepted a corrupt %s count", tc.name)
		}
	}
}

// stripSLO drops the report's SLO line: SLO attainment is computed from
// flow handles, which Restore documents it does not rebuild (service mode
// accounts SLO from drained completions instead).
func stripSLO(report string) string {
	var kept []string
	for _, line := range strings.Split(report, "\n") {
		if !strings.HasPrefix(line, "slo:") {
			kept = append(kept, line)
		}
	}
	return strings.Join(kept, "\n")
}

// TestClusterCheckpointPlainRun: the checkpoint surface also works outside
// service mode — a plain Inject/RunFor sequence restores bit-identically
// at the engine level (handles, and with them the handle-derived SLO report
// section, are documented as not restored).
func TestClusterCheckpointPlainRun(t *testing.T) {
	cfg := Config{Topology: Grid, Width: 4, Height: 4, Engine: EngineFluid, Seed: 4}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Inject(UniformTraffic(c, 40, 64<<10)); err != nil {
		t.Fatal(err)
	}
	if err := c.RunFor(50 * time.Microsecond); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Inject(UniformTraffic(c, 10, 32<<10)); err != nil {
		t.Fatal(err)
	}
	if err := c.RunFor(50 * time.Microsecond); err != nil {
		t.Fatal(err)
	}
	ckpt, err := c.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	r, err := Restore(cfg, ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if r.Now() != c.Now() {
		t.Fatalf("restored clock %v, want %v", r.Now(), c.Now())
	}
	if got, want := r.Report().String(), stripSLO(c.Report().String()); got != want {
		t.Fatalf("restored report diverged:\n--- original ---\n%s--- restored ---\n%s", want, got)
	}
	// Both continue identically.
	if err := c.RunUntilDone(time.Second); err != nil {
		t.Fatal(err)
	}
	if err := r.RunUntilDone(time.Second); err != nil {
		t.Fatal(err)
	}
	if got, want := r.Report().String(), stripSLO(c.Report().String()); got != want {
		t.Fatalf("post-restore run diverged:\n--- original ---\n%s--- restored ---\n%s", want, got)
	}
}
