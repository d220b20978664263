package rackfab

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
)

// svcClusterConfig is the shared world of the service-mode tests: a 4×4
// grid on the given engine with the flight recorder on, so split-run
// equality can compare trace bytes as well as fingerprints.
func svcClusterConfig(engine Engine) Config {
	return Config{
		Topology: Grid, Width: 4, Height: 4,
		Engine: engine, Seed: 9,
		Trace: true,
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

// startService builds the shared world on engine, applies the flap
// schedule, serves process's load and runs it to until.
func startService(t *testing.T, engine Engine, process string, until time.Duration) *Service {
	t.Helper()
	c, err := New(svcClusterConfig(engine))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.ApplyFaults(svcFlaps(c)); err != nil {
		t.Fatal(err)
	}
	s, err := c.Serve(svcServeConfig(process))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunUntil(until); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestServiceCheckpointSplitRunBitIdentical is the checkpoint acceptance
// gate: on either engine, a service run split across a
// Checkpoint/ResumeService boundary — with open-loop arrivals and a
// PoissonFlaps schedule applied before Serve — must be byte-identical to
// the unbroken run in the service fingerprint, the flight-recorder trace
// text and the end-of-run checkpoint bytes. The checkpoint is inputs plus a
// tick count, so its size does not grow between the two instants.
func TestServiceCheckpointSplitRunBitIdentical(t *testing.T) {
	for _, process := range []string{"poisson", "markov"} {
		t.Run(process, func(t *testing.T) {
			for _, engine := range []Engine{EnginePacket, EngineFluid} {
				t.Run(string(engine), func(t *testing.T) {
					mid, end := 10*time.Millisecond, 20*time.Millisecond

					s1 := startService(t, engine, process, end)
					wantFP, wantTrace := s1.Fingerprint(), serviceTraceText(t, s1.Cluster())
					wantCkpt, err := s1.Checkpoint()
					if err != nil {
						t.Fatal(err)
					}

					s2 := startService(t, engine, process, mid)
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
					if len(ckpt) != len(wantCkpt) {
						t.Fatalf("checkpoint grew from %d bytes at %v to %d at %v", len(ckpt), mid, len(wantCkpt), end)
					}

					s3, err := ResumeService(svcClusterConfig(engine), svcServeConfig(process), ckpt)
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

// TestPacketServiceHeapFlat: service-mode state is bounded for all state,
// not only the retained-flow count, on either engine. About 20k more flows
// served over one simulated second must leave the live heap where the
// warm-up left it.
func TestPacketServiceHeapFlat(t *testing.T) {
	for _, engine := range []Engine{EnginePacket, EngineFluid} {
		t.Run(string(engine), func(t *testing.T) {
			c, err := New(Config{Topology: Grid, Width: 4, Height: 4, Engine: engine, Seed: 4})
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
		})
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

// TestServeKeepsEarlierHandleAnswers: a handle injected and run before
// Serve keeps its completion time once the service retires its flow, and
// Report's flow sections keep counting it, on both engines. The fluid
// session drops a retired flow's record, so the handle must have kept its
// own copy.
func TestServeKeepsEarlierHandleAnswers(t *testing.T) {
	for _, engine := range []Engine{EnginePacket, EngineFluid} {
		t.Run(string(engine), func(t *testing.T) {
			c, err := New(Config{Topology: Grid, Width: 4, Height: 4, Engine: engine, Seed: 3})
			if err != nil {
				t.Fatal(err)
			}
			flows, err := c.Inject(UniformTraffic(c, 10, 64<<10))
			if err != nil {
				t.Fatal(err)
			}
			if err := c.RunUntilDone(time.Second); err != nil {
				t.Fatal(err)
			}
			fcts := func() []time.Duration {
				out := make([]time.Duration, len(flows))
				for i, f := range flows {
					if out[i], err = f.CompletionTime(); err != nil {
						t.Fatalf("flow %d: %v", i, err)
					}
				}
				return out
			}
			before, report := fcts(), c.Report()
			s, err := c.Serve(ServeConfig{Tick: time.Millisecond, Arrivals: ArrivalSpec{Rate: 1000}})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 3; i++ {
				if err := s.Tick(); err != nil {
					t.Fatal(err)
				}
			}
			if retired := s.Stats().Retired; retired < int64(len(flows)) {
				t.Fatalf("the service retired %d flows, want at least the %d injected before it", retired, len(flows))
			}
			for i, after := range fcts() {
				if after != before[i] {
					t.Errorf("flow %d: completion time %v before Serve, %v after", i, before[i], after)
				}
			}
			if got := c.Report(); got.FlowsCompleted != report.FlowsCompleted || got.FCT != report.FCT || got.SLO != report.SLO {
				t.Errorf("flow sections moved across Serve:\nbefore %d %+v %+v\nafter  %d %+v %+v",
					report.FlowsCompleted, report.FCT, report.SLO, got.FlowsCompleted, got.FCT, got.SLO)
			}
		})
	}
}

// TestServiceStatsCountEveryFlow: Injected, Completed and Retired count
// every flow the engine holds, those injected before Serve included, so
// both engines report the same numbers for the same call sequence.
func TestServiceStatsCountEveryFlow(t *testing.T) {
	stats := make(map[Engine]ServiceStats)
	for _, engine := range []Engine{EnginePacket, EngineFluid} {
		c, err := New(Config{Topology: Grid, Width: 4, Height: 4, Engine: engine, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		flows, err := c.Inject(UniformTraffic(c, 10, 64<<10))
		if err != nil {
			t.Fatal(err)
		}
		if err := c.RunUntilDone(time.Second); err != nil {
			t.Fatal(err)
		}
		s, err := c.Serve(ServeConfig{Tick: time.Millisecond, Arrivals: ArrivalSpec{Rate: 1000}})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if err := s.Tick(); err != nil {
				t.Fatal(err)
			}
		}
		st := s.Stats()
		if st.Injected <= int64(len(flows)) || st.Completed != st.Injected || st.Retired != st.Injected {
			t.Errorf("%s: injected/completed/retired %d/%d/%d; want every one of the %d flows injected before Serve and the service's own, all finished",
				engine, st.Injected, st.Completed, st.Retired, len(flows))
		}
		stats[engine] = st
	}
	pk, fl := stats[EnginePacket], stats[EngineFluid]
	if pk.Injected != fl.Injected || pk.Completed != fl.Completed || pk.Retired != fl.Retired {
		t.Errorf("engines disagree: packet %d/%d/%d, fluid %d/%d/%d injected/completed/retired",
			pk.Injected, pk.Completed, pk.Retired, fl.Injected, fl.Completed, fl.Retired)
	}
}

// TestMeanHopsCoversServedFlows: Report.MeanHops keeps counting the flows
// a Service drained and retired. After a finished workload and three 1 ms
// ticks, both engines read a mean hop count inside the 4×4 grid's 1–6
// range; the fluid engine used to average only the undrained completions
// and read 0.
func TestMeanHopsCoversServedFlows(t *testing.T) {
	for _, engine := range []Engine{EnginePacket, EngineFluid} {
		c, err := New(Config{Topology: Grid, Width: 4, Height: 4, Engine: engine, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Inject(UniformTraffic(c, 10, 64<<10)); err != nil {
			t.Fatal(err)
		}
		if err := c.RunUntilDone(time.Second); err != nil {
			t.Fatal(err)
		}
		before := c.Report().MeanHops
		s, err := c.Serve(ServeConfig{Tick: time.Millisecond, Arrivals: ArrivalSpec{Rate: 1000}})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if err := s.Tick(); err != nil {
				t.Fatal(err)
			}
		}
		if after := c.Report().MeanHops; before < 1 || after < 1 || after > 6 {
			t.Errorf("%s: MeanHops %.3f before Serve and %.3f after, want both within 1–6", engine, before, after)
		}
	}
}

// TestPacketDrainHopsFollowTheFabric: a service flow's hop count, which
// prices its SLO ideal, is taken over the links live when it drains: three
// hops around a downed link, and one again once the link heals.
func TestPacketDrainHopsFollowTheFabric(t *testing.T) {
	c, err := New(Config{
		Topology: Grid, Width: 4, Height: 4, Seed: 3,
		Faults: NewFaultSchedule(
			FaultSpec{At: 10 * time.Microsecond, Kind: LinkDown, A: 0, B: 1},
			FaultSpec{At: 500 * time.Microsecond, Kind: LinkUp, A: 0, B: 1},
		),
	})
	if err != nil {
		t.Fatal(err)
	}
	b := c.pk
	for _, tc := range []struct {
		at   time.Duration
		hops int
	}{{20 * time.Microsecond, 3}, {600 * time.Microsecond, 1}} {
		if err := b.Inject(lowerSpecs([]FlowSpec{{Src: 0, Dst: 1, Bytes: 64 << 10, At: tc.at}}, 0)); err != nil {
			t.Fatal(err)
		}
		if err := b.RunFor(simDur(tc.at + 200*time.Microsecond - c.Now())); err != nil {
			t.Fatal(err)
		}
		cs := b.Drain()
		if len(cs) != 1 {
			t.Fatalf("flow at %v: drained %d completions, want 1", tc.at, len(cs))
		}
		if cs[0].Hops != tc.hops {
			t.Errorf("flow at %v drained with %d hops, want %d", tc.at, cs[0].Hops, tc.hops)
		}
	}
}

// TestServeTickAllocations holds a warmed fluid service tick to the
// allocations its new flows keep: one path per arriving flow and the ID
// slice Session.Inject returns, with two to spare for the amortized growth
// of the per-flow tables. The arrivals, Inject's canonical copy, the
// completion records and the drained completions live in reused storage; a
// tick that rebuilt any of them would pay at least one more allocation.
func TestServeTickAllocations(t *testing.T) {
	c, err := New(Config{Topology: Grid, Width: 16, Height: 16, Engine: EngineFluid, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s, err := c.Serve(ServeConfig{
		Tick:     time.Millisecond,
		Arrivals: ArrivalSpec{Seed: 1, Rate: 20000, Sizes: "fixed:262144"},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if err := s.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	before := s.Stats()
	var tickErr error
	allocs := testing.AllocsPerRun(200, func() {
		if err := s.Tick(); err != nil && tickErr == nil {
			tickErr = err
		}
	})
	if tickErr != nil {
		t.Fatal(tickErr)
	}
	after := s.Stats()
	perTick := float64(after.Injected-before.Injected) / float64(after.Ticks-before.Ticks)
	if allocs > perTick+2 {
		t.Fatalf("a warmed tick allocates %.2f times at %.2f flows injected per tick, want at most %.2f", allocs, perTick, perTick+2)
	}
}

// TestDrainValidUntilNextDrain holds each backend's Drain to its window, on
// both engines: a result stays intact while flows arrive, run and complete
// and the engine retires state, and the next Drain hands out only the
// completions since.
func TestDrainValidUntilNextDrain(t *testing.T) {
	for _, engine := range []Engine{EnginePacket, EngineFluid} {
		c, err := New(Config{Topology: Grid, Width: 4, Height: 4, Engine: engine, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		be := c.be
		batch := func(bytes int64) {
			t.Helper()
			specs := make([]FlowSpec, 4)
			for i := range specs {
				specs[i] = FlowSpec{Src: i, Dst: 15 - i, Bytes: bytes + int64(i)}
			}
			if err := be.Inject(lowerSpecs(specs, be.Now())); err != nil {
				t.Fatal(err)
			}
			if err := be.RunFor(simDur(time.Millisecond)); err != nil {
				t.Fatal(err)
			}
		}
		batch(10_000)
		first := be.Drain()
		kept := slices.Clone(first)
		if len(first) != 4 {
			t.Fatalf("%s: first Drain gave %d completions, want 4", engine, len(first))
		}
		be.Retire()
		batch(20_000)
		be.Retire()
		if !slices.Equal(first, kept) {
			t.Fatalf("%s: a Drain result changed before the next Drain:\n got %v\nwant %v", engine, first, kept)
		}
		second := be.Drain()
		if len(second) != 4 {
			t.Fatalf("%s: second Drain gave %d completions, want 4", engine, len(second))
		}
		for _, cp := range second {
			if cp.Bytes < 20_000 {
				t.Fatalf("%s: second Drain handed out an earlier flow: %+v", engine, cp)
			}
		}
	}
}

// TestRestoreGuards pins ResumeService's error contract: it refuses bytes
// that are not a whole checkpoint and inputs that differ from the
// original's, down to one ServeConfig field.
func TestRestoreGuards(t *testing.T) {
	cfg, scfg := svcClusterConfig(EngineFluid), svcServeConfig("poisson")
	s := startService(t, EngineFluid, "poisson", 2*time.Millisecond)
	ckpt, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ResumeService(cfg, scfg, ckpt); err != nil {
		t.Fatal(err)
	}

	otherSeed := cfg
	otherSeed.Seed++
	withFaults := cfg
	withFaults.Faults = NewFaultSchedule(FaultSpec{At: time.Millisecond, Kind: LinkDown, A: 0, B: 1})
	pkt := cfg
	pkt.Engine = EnginePacket
	fasterRate := scfg
	fasterRate.Arrivals.Rate *= 2
	for _, tc := range []struct {
		name string
		cfg  Config
		scfg ServeConfig
		data []byte
	}{
		{"junk bytes", cfg, scfg, []byte("junk")},
		{"a truncated checkpoint", cfg, scfg, ckpt[:len(ckpt)-1]},
		{"trailing bytes", cfg, scfg, append(ckpt[:len(ckpt):len(ckpt)], 0)},
		{"a different Config", otherSeed, scfg, ckpt},
		{"cfg.Faults alongside the checkpointed schedules", withFaults, scfg, ckpt},
		{"the other engine", pkt, scfg, ckpt},
		{"a ServeConfig differing only in Rate", cfg, fasterRate, ckpt},
	} {
		if _, err := ResumeService(tc.cfg, tc.scfg, tc.data); err == nil {
			t.Errorf("ResumeService accepted %s", tc.name)
		}
	}

	// Every ControlConfig field shapes the packet run, so each is digested.
	on := svcClusterConfig(EnginePacket)
	on.Control = ControlOn()
	off := on
	off.Control.DisableFEC = true
	if ckptDigest(on, scfg) == ckptDigest(off, scfg) {
		t.Error("the checkpoint digest ignores Control.DisableFEC")
	}
}

// TestRestoreRejectsCorruptCounts: each element count in a checkpoint —
// fault schedules, and one schedule's events — tampered to 0xFFFFFFFF
// must come back as an error from ResumeService instead of sizing an
// allocation from it, and so must a fault event naming no link.
func TestRestoreRejectsCorruptCounts(t *testing.T) {
	cfg, scfg := svcClusterConfig(EngineFluid), svcServeConfig("poisson")
	s := startService(t, EngineFluid, "poisson", 2*time.Millisecond)
	ckpt, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	// Layout: magic, digest, schedule count, then the first schedule's
	// event count and its first event (At, then Target).
	const schedsAt = len(ckptMagic) + 8
	const eventsAt = schedsAt + 4
	if n, nev := binary.LittleEndian.Uint32(ckpt[schedsAt:]), binary.LittleEndian.Uint32(ckpt[eventsAt:]); n != 1 || nev == 0 {
		t.Fatalf("want one schedule with events, got %d schedules, first with %d events", n, nev)
	}
	for _, tc := range []struct {
		name string
		at   int
	}{
		{"schedule count", schedsAt},
		{"event count", eventsAt},
	} {
		bad := append([]byte(nil), ckpt...)
		binary.LittleEndian.PutUint32(bad[tc.at:], 0xFFFFFFFF)
		if _, err := ResumeService(cfg, scfg, bad); err == nil {
			t.Errorf("ResumeService accepted a corrupt %s", tc.name)
		}
	}
	bad := append([]byte(nil), ckpt...)
	binary.LittleEndian.PutUint64(bad[eventsAt+4+8:], 1<<40)
	if _, err := ResumeService(cfg, scfg, bad); err == nil {
		t.Error("ResumeService accepted a fault event naming no link")
	}
}

// TestServiceCheckpointRefusesOffScript: a checkpoint records only inputs
// and a tick count, so Service.Checkpoint must refuse once anything but
// the service's own ticks drove the cluster — and keep working when the
// only extra call is ApplyFaults while the clock reads zero, before or
// after Serve.
func TestServiceCheckpointRefusesOffScript(t *testing.T) {
	scfg := ServeConfig{Tick: time.Millisecond, Arrivals: ArrivalSpec{Seed: 3, Rate: 5000, Sizes: "fixed:20000"}}
	phase := []FlowSpec{{Src: 0, Dst: 5, Bytes: 1e4}}
	linkDown := NewFaultSchedule(FaultSpec{At: 5 * time.Millisecond, Kind: LinkDown, A: 0, B: 1})
	// An unhealed node loss strands the node's flows; the fluid engine
	// errors the first tick that has nothing else left to run.
	nodeLoss := NewFaultSchedule(FaultSpec{At: 1500 * time.Microsecond, Kind: NodeDown, Node: 0})
	for _, tc := range []struct {
		name   string
		engine Engine
		before func(c *Cluster) error // runs before Serve
		after  func(c *Cluster, s *Service) error
		fails  bool // after is expected to return an error
	}{
		{name: "Inject before Serve", engine: EnginePacket,
			before: func(c *Cluster) error { _, err := c.Inject(phase); return err }},
		{name: "Inject", engine: EnginePacket,
			after: func(c *Cluster, _ *Service) error { _, err := c.Inject(phase); return err }},
		{name: "RunFor", engine: EnginePacket,
			after: func(c *Cluster, _ *Service) error { return c.RunFor(time.Millisecond) }},
		{name: "RunUntilDone", engine: EnginePacket,
			after: func(c *Cluster, _ *Service) error { return c.RunUntilDone(time.Second) }},
		{name: "RunPhases", engine: EnginePacket,
			after: func(c *Cluster, _ *Service) error {
				_, err := c.RunPhases([][]FlowSpec{phase}, time.Second)
				return err
			}},
		{name: "ApplyGridToTorus", engine: EnginePacket,
			after: func(c *Cluster, _ *Service) error { return c.ApplyGridToTorus(1) }},
		{name: "SetLinkBER", engine: EnginePacket,
			after: func(c *Cluster, _ *Service) error { return c.SetLinkBER(0, 1, 1e-9) }},
		{name: "DisableLanes", engine: EnginePacket,
			after: func(c *Cluster, _ *Service) error { return c.DisableLanes(0, 1, 1) }},
		{name: "SetValiantRouting", engine: EnginePacket,
			after: func(c *Cluster, _ *Service) error { c.SetValiantRouting(true); return nil }},
		{name: "ApplyFaults after the clock moved", engine: EnginePacket,
			after: func(c *Cluster, _ *Service) error { return c.ApplyFaults(linkDown) }},
		{name: "ApplyFaults after the clock moved on fluid", engine: EngineFluid,
			after: func(c *Cluster, _ *Service) error { return c.ApplyFaults(linkDown) }},
		{name: "a second Serve", engine: EnginePacket,
			after: func(c *Cluster, _ *Service) error { _, err := c.Serve(scfg); return err }},
		{name: "a failed Tick", engine: EngineFluid,
			before: func(c *Cluster) error { return c.ApplyFaults(nodeLoss) },
			after:  func(_ *Cluster, s *Service) error { return s.RunUntil(time.Second) },
			fails:  true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := New(Config{Topology: Grid, Width: 4, Height: 4, Engine: tc.engine, Seed: 5})
			if err != nil {
				t.Fatal(err)
			}
			if tc.before != nil {
				if err := tc.before(c); err != nil {
					t.Fatal(err)
				}
			}
			s, err := c.Serve(scfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Tick(); err != nil {
				t.Fatal(err)
			}
			if tc.after != nil {
				if err := tc.after(c, s); (err != nil) != tc.fails {
					t.Fatalf("call returned %v, want failure %v", err, tc.fails)
				}
			}
			if _, err := s.Checkpoint(); err == nil {
				t.Fatal("Checkpoint accepted a cluster driven outside its service's ticks")
			}
		})
	}

	t.Run("ApplyFaults at clock zero", func(t *testing.T) {
		for _, engine := range []Engine{EnginePacket, EngineFluid} {
			t.Run(string(engine), func(t *testing.T) {
				cfg := Config{Topology: Grid, Width: 4, Height: 4, Engine: engine, Seed: 5}
				c, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if err := c.ApplyFaults(linkDown); err != nil {
					t.Fatal(err)
				}
				s, err := c.Serve(scfg)
				if err != nil {
					t.Fatal(err)
				}
				if err := c.ApplyFaults(NewFaultSchedule(FaultSpec{At: 8 * time.Millisecond, Kind: LinkUp, A: 0, B: 1})); err != nil {
					t.Fatal(err)
				}
				if err := s.RunUntil(10 * time.Millisecond); err != nil {
					t.Fatal(err)
				}
				ckpt, err := s.Checkpoint()
				if err != nil {
					t.Fatal(err)
				}
				r, err := ResumeService(cfg, scfg, ckpt)
				if err != nil {
					t.Fatal(err)
				}
				if got, want := r.Fingerprint(), s.Fingerprint(); got != want {
					t.Fatalf("resumed fingerprint diverged:\n--- original ---\n%s--- resumed ---\n%s", want, got)
				}
			})
		}
	})
}
