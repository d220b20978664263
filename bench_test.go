// Benchmarks: one per experiment `rackfab list` prints, regenerating each
// result at Quick scale per iteration, plus engine microbenchmarks. Run with:
//
//	go test -bench=. -benchmem .
package rackfab_test

import (
	"testing"
	"time"

	"rackfab"
	"rackfab/internal/experiment"
	"rackfab/internal/fluid"
	"rackfab/internal/route"
	"rackfab/internal/sim"
	"rackfab/internal/topo"
	"rackfab/internal/workload"
)

// benchExperiment regenerates one experiment table per iteration.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	run, ok := experiment.Lookup(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	for i := 0; i < b.N; i++ {
		// Sequential on purpose: these benchmarks track per-experiment
		// solver cost, so their numbers must not vary with the host's
		// core count. BenchmarkSweepParallel measures the parallel arm.
		table, err := run(experiment.Sequential(experiment.Quick))
		if err != nil {
			b.Fatal(err)
		}
		if len(table.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkSweepParallel runs a representative experiment (E3: three
// independent full-fabric trials) through the sweep runner sequentially
// and with one worker per CPU. On multi-core hosts the parallel arm's
// ns/op drops roughly with min(trials, cores); outputs are byte-identical
// either way.
func BenchmarkSweepParallel(b *testing.B) {
	for _, arm := range []struct {
		name     string
		parallel int
	}{
		{"sequential", 1},
		{"numcpu", 0},
	} {
		b.Run(arm.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				table, err := experiment.E3(experiment.Config{Scale: experiment.Quick, Parallel: arm.parallel})
				if err != nil {
					b.Fatal(err)
				}
				if len(table.Rows) == 0 {
					b.Fatal("empty table")
				}
			}
		})
	}
}

func BenchmarkFig1LatencyBreakdown(b *testing.B) { benchExperiment(b, "fig1") }
func BenchmarkFig2Reconfigure(b *testing.B)      { benchExperiment(b, "fig2") }
func BenchmarkE3MapReduce(b *testing.B)          { benchExperiment(b, "e3") }
func BenchmarkE4PowerBudget(b *testing.B)        { benchExperiment(b, "e4") }
func BenchmarkE5MinFlowSize(b *testing.B)        { benchExperiment(b, "e5") }
func BenchmarkE6AdaptiveFEC(b *testing.B)        { benchExperiment(b, "e6") }
func BenchmarkE7Validation(b *testing.B)         { benchExperiment(b, "e7") }
func BenchmarkE8Scale(b *testing.B)              { benchExperiment(b, "e8") }
func BenchmarkE9BurstFEC(b *testing.B)           { benchExperiment(b, "e9") }
func BenchmarkA1PriceWeights(b *testing.B)       { benchExperiment(b, "a1") }
func BenchmarkA2Bypass(b *testing.B)             { benchExperiment(b, "a2") }
func BenchmarkA3Routing(b *testing.B)            { benchExperiment(b, "a3") }

// BenchmarkPacketEngine measures simulated frame throughput of the packet
// engine: a 4x4 grid shuffling 16 KiB partitions. The reported custom
// metric is frames per wall second.
func BenchmarkPacketEngine(b *testing.B) {
	var frames int64
	for i := 0; i < b.N; i++ {
		cluster, err := rackfab.New(rackfab.Config{
			Topology: rackfab.Grid, Width: 4, Height: 4, Seed: int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := cluster.Inject(rackfab.ShuffleTraffic(cluster, 16<<10)); err != nil {
			b.Fatal(err)
		}
		if err := cluster.RunUntilDone(10 * time.Second); err != nil {
			b.Fatal(err)
		}
		frames += cluster.Report().FramesDelivered
	}
	b.ReportMetric(float64(frames)/b.Elapsed().Seconds(), "frames/s")
}

// BenchmarkPacketEngineTraced is BenchmarkPacketEngine with the flight
// recorder on (every flow recorded, per-transmission busy accounting). The gap between the two is the tracing overhead the
// README quotes; tracing off is a nil-pointer test on the hot path, so
// BenchmarkPacketEngine itself is the zero-cost baseline.
func BenchmarkPacketEngineTraced(b *testing.B) {
	var frames int64
	for i := 0; i < b.N; i++ {
		cluster, err := rackfab.New(rackfab.Config{
			Topology: rackfab.Grid, Width: 4, Height: 4, Seed: int64(i),
			Trace: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := cluster.Inject(rackfab.ShuffleTraffic(cluster, 16<<10)); err != nil {
			b.Fatal(err)
		}
		if err := cluster.RunUntilDone(10 * time.Second); err != nil {
			b.Fatal(err)
		}
		frames += cluster.Report().FramesDelivered
	}
	b.ReportMetric(float64(frames)/b.Elapsed().Seconds(), "frames/s")
}

// BenchmarkIncast64 prices the packet datapath under its worst-case
// traffic: the e12 quick-scale incast — 16 sources bursting 128 KiB each
// into one node of an 8×8 grid over VLB — where every frame of the fan-in
// funnels through the receiver's last hop. This is the arrival pattern
// that stresses the VOQ/train machinery hardest per delivered byte, so it
// is the gated engine benchmark for the SLO workload layer
// (BENCH_engine.json).
func BenchmarkIncast64(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cluster, err := rackfab.New(rackfab.Config{
			Topology: rackfab.Grid, Width: 8, Height: 8, Seed: 12,
		})
		if err != nil {
			b.Fatal(err)
		}
		cluster.SetValiantRouting(true)
		if _, err := cluster.Inject(rackfab.IncastTraffic(cluster, 32, 16, 128<<10)); err != nil {
			b.Fatal(err)
		}
		if err := cluster.RunUntilDone(10 * time.Second); err != nil {
			b.Fatal(err)
		}
		if cluster.Report().FlowsCompleted != 16 {
			b.Fatal("incomplete incast")
		}
	}
}

// BenchmarkFluidEngine measures the flow-level engine on a 256-node torus.
func BenchmarkFluidEngine(b *testing.B) {
	g := topo.NewTorus(16, 16, topo.Options{})
	rng := sim.NewRNG(1)
	specs := workload.Uniform(rng, workload.UniformConfig{
		Nodes: 256, Flows: 512,
		Size:             workload.Fixed(256e3),
		MeanInterarrival: 2 * sim.Microsecond,
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fluid.Run(fluid.Config{Graph: g}, specs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFluidEngine1024 is one full-scale E8 trial in isolation: the
// 32×32 grid under a simultaneous random permutation — the slowest single
// trial of the evaluation ladder and the workload the incremental solver
// exists for.
func BenchmarkFluidEngine1024(b *testing.B) {
	g := topo.NewGrid(32, 32, topo.Options{})
	rng := sim.NewRNG(32)
	specs := workload.Permutation(rng, 1024, workload.Fixed(1e6))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fluid.Run(fluid.Config{Graph: g}, specs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFluidEngine4096 is the top rung of the full-scale E8 ladder: the
// 64×64 grid under a simultaneous random permutation. It exists to keep the
// 4096-node trial's wall time honest — it is too slow for the CI bench smoke
// (which selects BenchmarkFluidEngine(1024)?$) and is run manually when
// recording BENCH_fluid.json baselines.
func BenchmarkFluidEngine4096(b *testing.B) {
	g := topo.NewGrid(64, 64, topo.Options{})
	rng := sim.NewRNG(64)
	specs := workload.Permutation(rng, 4096, workload.Fixed(1e6))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fluid.Run(fluid.Config{Graph: g}, specs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClusterFluidRun prices the public façade against driving
// internal/fluid directly: both arms run the identical 256-node grid
// permutation (same RNG stream, simultaneous arrivals), the facade arm
// through New/Inject/RunUntilDone on EngineFluid, the internal arm through
// fluid.Run. The facade arm is the gated one (BENCH_fluid.json) — its
// overhead over the internal arm must stay within noise, since the façade
// adds only spec conversion, handle bookkeeping, and the session stepper
// around the same solver.
func BenchmarkClusterFluidRun(b *testing.B) {
	b.Run("facade", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cluster, err := rackfab.New(rackfab.Config{
				Topology: rackfab.Grid, Width: 16, Height: 16,
				Engine: rackfab.EngineFluid, Seed: 1,
			})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := cluster.Inject(rackfab.PermutationTraffic(cluster, 1e6)); err != nil {
				b.Fatal(err)
			}
			if err := cluster.RunUntilDone(time.Minute); err != nil {
				b.Fatal(err)
			}
			if cluster.Report().FlowsCompleted != 256 {
				b.Fatal("incomplete run")
			}
		}
	})
	b.Run("internal", func(b *testing.B) {
		specs := workload.Permutation(sim.NewRNG(1).Split("traffic/permutation"), 256, workload.Fixed(1e6))
		for i := 0; i < b.N; i++ {
			g := topo.NewGrid(16, 16, topo.Options{})
			res, err := fluid.Run(fluid.Config{Graph: g}, specs)
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Flows) != 256 {
				b.Fatal("incomplete run")
			}
		}
	})
}

// BenchmarkServiceTick prices one service-mode iteration — generate →
// inject → advance one tick → drain → retire — on a 256-node fluid grid
// under open-loop Poisson load (~20 arrivals per 1 ms tick). This is the
// steady-state unit of a soak: per-tick cost must track the in-flight flow
// count, not the soak's age, so the gated number (BENCH_engine.json) holds
// whether the loop has run for simulated milliseconds or hours.
func BenchmarkServiceTick(b *testing.B) {
	cluster, err := rackfab.New(rackfab.Config{
		Topology: rackfab.Grid, Width: 16, Height: 16,
		Engine: rackfab.EngineFluid, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	s, err := cluster.Serve(rackfab.ServeConfig{
		Tick: time.Millisecond,
		Arrivals: rackfab.ArrivalSpec{
			Seed: 1, Rate: 20000, Sizes: "fixed:262144",
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	// Warm-up: the first ticks pay the one-time session and routing build
	// plus cold solver fills; the gated number is the steady-state marginal
	// tick, so those land before the timer.
	for i := 0; i < 32; i++ {
		if err := s.Tick(); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Tick(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if st := s.Stats(); st.Completed == 0 {
		b.Fatal("service made no progress")
	}
}

// BenchmarkRouteRebuild measures routing maintenance on a 256-node torus.
// The full arm is a from-scratch Build under UniformCost, whose equal costs
// let each column search pop a FIFO queue. The priced arm is the same Build
// under fixed unequal costs, the binary-heap search every CRC re-price
// takes. The repair arm is one link failing and recovering against a live
// table. In each direction the triage leaves most of the 256 columns alone
// or re-derives a tie mask in place, and repairs the 14 columns whose
// distances move over the few nodes whose distance changes. Re-running
// Dijkstra on those columns was 98% of the arm's time before they were
// repaired in place; BENCH_engine.json records all three. Build spreads
// its columns over GOMAXPROCS goroutines, so CI gates full and priced at
// -cpu 1.
func BenchmarkRouteRebuild(b *testing.B) {
	build := func(b *testing.B, cost route.CostFunc) {
		g := topo.NewTorus(16, 16, topo.Options{})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if t := route.Build(g, cost); t == nil {
				b.Fatal("nil table")
			}
		}
	}
	b.Run("full", func(b *testing.B) { build(b, route.UniformCost) })
	b.Run("priced", func(b *testing.B) {
		build(b, func(e *topo.Edge) float64 { return 1 + 0.137*float64(e.Index()%7) })
	})
	b.Run("repair", func(b *testing.B) {
		g := topo.NewTorus(16, 16, topo.Options{})
		tab := route.Build(g, route.UniformCost)
		edges := g.Edges()[:1]
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			edges[0].SetEnabled(false)
			tab.RepairBatch(g, route.UniformCost, edges)
			edges[0].SetEnabled(true)
			tab.RepairBatch(g, route.UniformCost, edges)
		}
	})
}
