package fluid

import (
	"fmt"
	"testing"

	"rackfab/internal/faults"
	"rackfab/internal/sim"
	"rackfab/internal/topo"
	"rackfab/internal/workload"
)

// FuzzSolverMaxMin drives the solver over fuzzer-chosen topologies and
// workloads through four random interleavings of arrivals, completions,
// and link capacity ops (down / up / degrade — the fault subsystem's whole
// event vocabulary): one walk arrives one flow per arrival op, one 1–3
// flows activated as one batch, one applies 1–3 capacity events on
// distinct links as one same-instant group, and one also completes each
// instant's due flows as one batch. It asserts, after every event:
//
//  1. the max-min certificate — the allocation is feasible and every active
//     flow is bottlenecked at a saturated link where no flow is faster,
//     with rate 0 legal only behind a dead link (checkMaxMin),
//  2. warm start ≡ cold start — the warm engine's rate vector equals a
//     from-zero re-solve's bit for bit, and the two engines' completion
//     schedules never diverge (churnEngines compares nextDone each event),
//     and
//  3. one batch ≡ one flow at a time — in the batched walks, a third
//     engine that takes each arrival batch's flows in one-flow batches,
//     and in the completion-batch walk completes each batch's flows one
//     at a time, holds the same rate vector.
//
// On top of the stepwise engines, the whole scenario runs through Run twice
// (warm and cold) and must fingerprint identically — first fault-free, then
// under a Poisson link-flap schedule that exercises mid-run rerouting,
// starvation, and repair end to end. A third run takes that schedule
// through ApplyFaults on a session already advanced to just before its
// first instant, and must equal the warm Run bit for bit. The committed
// seed corpus under testdata/fuzz/FuzzSolverMaxMin keeps the interesting
// shapes (tie-heavy permutations, elephants-and-mice, line bottlenecks,
// flap-through-load walks, and degrade-reroute-group: on a 2×2 grid, one
// instant degrades a link two flows share to half and takes down the next
// link of one of them, which reroutes it off the degraded link;
// overdue-fault-group, whose grouped walk let a flow's finish fall behind
// the op clock; drain-finishes-walk, whose grouped walk completes its last
// flows before an op) in every plain `go test` run;
// `go test -fuzz FuzzSolverMaxMin` explores further.
func FuzzSolverMaxMin(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(0), uint8(4))
	f.Add(int64(7), uint8(1), uint8(1), uint8(16))
	f.Add(int64(23), uint8(2), uint8(2), uint8(30))
	f.Add(int64(99), uint8(1), uint8(2), uint8(40))
	f.Add(int64(-5235746606184552251), uint8(2), uint8(2), uint8(38))
	// Capacity-churn shapes: a line (every down partitions), a dense torus
	// walk, and a grid whose walk mixes degrades with heavy arrival churn.
	f.Add(int64(4242), uint8(0), uint8(0), uint8(12))
	f.Add(int64(-77), uint8(2), uint8(3), uint8(44))
	f.Add(int64(31337), uint8(1), uint8(2), uint8(25))
	f.Fuzz(func(t *testing.T, seed int64, topoKind, sideRaw, flowsRaw uint8) {
		g, specs, rng := fuzzScenario(seed, topoKind, sideRaw, flowsRaw)
		churnEngines(t, g, specs, rng, 1, 1, false, checkWarmCold(t))
		// The batched, grouped and completion-batch walks draw from their
		// own streams, so the walk above and the Run schedules below draw
		// the same values with or without them, and each committed corpus
		// entry keeps replaying the walk it was found on.
		churnEngines(t, g, specs, sim.NewRNG(seed).Split("batched"), 1, 3, false, checkWarmCold(t))
		churnEngines(t, g, specs, sim.NewRNG(seed).Split("fault-groups"), 3, 1, false, checkWarmCold(t))
		churnEngines(t, g, specs, sim.NewRNG(seed).Split("completion-batches"), 1, 3, true, checkWarmCold(t))

		for i := range specs {
			specs[i].At = sim.Time(rng.Intn(200)) * sim.Time(sim.Microsecond)
		}
		warmRun, err := Run(Config{Graph: g}, specs)
		if err != nil {
			t.Fatal(err)
		}
		coldRun, err := Run(Config{Graph: g, coldStart: true}, specs)
		if err != nil {
			t.Fatal(err)
		}
		if fingerprint(warmRun) != fingerprint(coldRun) {
			t.Fatalf("Run diverged between warm and cold start:\n--- warm ---\n%s\n--- cold ---\n%s",
				fingerprint(warmRun), fingerprint(coldRun))
		}

		// Same scenario under a Poisson flap schedule: every outage heals,
		// so the run completes, and warm ≡ cold must survive the mid-run
		// rerouting, starvation, and repair the flaps force.
		sched := faults.PoissonFlaps(rng, g, faults.FlapConfig{
			Flaps:      3,
			MeanGap:    60 * sim.Microsecond,
			MeanOutage: 80 * sim.Microsecond,
		})
		warmFlap, err := Run(Config{Graph: g, Faults: sched}, specs)
		if err != nil {
			t.Fatal(err)
		}
		coldFlap, err := Run(Config{Graph: g, Faults: sched, coldStart: true}, specs)
		if err != nil {
			t.Fatal(err)
		}
		if fingerprint(warmFlap) != fingerprint(coldFlap) {
			t.Fatalf("faulted Run diverged between warm and cold start:\n--- warm ---\n%s\n--- cold ---\n%s",
				fingerprint(warmFlap), fingerprint(coldFlap))
		}

		// The same schedule handed to a running session just before its
		// first instant replays the same run, solver counts included:
		// Config.Faults goes through the same ApplyFaults.
		if sched.Len() > 0 {
			s, err := NewSession(Config{Graph: g}, specs)
			if err != nil {
				t.Fatal(err)
			}
			err = s.Advance(sched.Events()[0].At - 1)
			if err == nil {
				err = s.ApplyFaults(sched)
			}
			if err == nil {
				err = s.Advance(sim.Forever)
			}
			s.RestoreGraph()
			if err != nil {
				t.Fatal(err)
			}
			if got, want := fmt.Sprintf("%+v", *s.finish()), fmt.Sprintf("%+v", *warmFlap); got != want {
				t.Fatalf("schedule applied mid-run diverged from Config.Faults:\n--- Config.Faults ---\n%s\n--- ApplyFaults ---\n%s", want, got)
			}
		}
	})
}

// fuzzScenario builds FuzzSolverMaxMin's fabric and flows from its inputs
// and returns the stream the rest of the scenario draws from.
func fuzzScenario(seed int64, topoKind, sideRaw, flowsRaw uint8) (*topo.Graph, []workload.FlowSpec, *sim.RNG) {
	side := 2 + int(sideRaw)%4
	flows := 2 + int(flowsRaw)%48
	var g *topo.Graph
	switch topoKind % 3 {
	case 0:
		g = topo.NewLine(side*side, topo.Options{})
	case 1:
		g = topo.NewGrid(side, side, topo.Options{})
	default:
		g = topo.NewTorus(side, side, topo.Options{})
	}
	n := g.NumNodes()
	rng := sim.NewRNG(seed)
	specs := make([]workload.FlowSpec, 0, flows)
	for len(specs) < flows {
		src, dst := rng.Intn(n), rng.Intn(n)
		if src == dst {
			continue
		}
		// Mix exact ties (identical sizes) with ragged sizes so both
		// tie-heavy closures and irregular schedules get exercised.
		bytes := int64(250e3)
		if rng.Intn(2) == 1 {
			bytes = 50e3 + int64(rng.Intn(1e6))
		}
		specs = append(specs, workload.FlowSpec{Src: src, Dst: dst, Bytes: bytes})
	}
	return g, specs, rng
}

// checkWarmCold is the fuzz walks' per-event check: the warm and cold rate
// vectors agree bit for bit and the warm one is max-min fair.
func checkWarmCold(t *testing.T) func(warm, cold *engine) {
	return func(warm, cold *engine) {
		t.Helper()
		for fid := range warm.flows {
			w, c := warm.flows[fid].rate, cold.flows[fid].rate
			if w != c {
				t.Fatalf("flow %d: warm rate %g != cold rate %g", fid, w, c)
			}
		}
		checkMaxMin(t, warm)
	}
}

// TestReplayChecksEveryScheduledFlow replays the batched churn walk that
// found a warm-replay defect: after a completion, the old level of a round
// had been set by the completed flow's link, and a clean link had joined
// that round's closure only through freezes of flows on the seed path.
// The replay froze flows that cross no seed link at that level without
// looking at their links, 1–2 ulps off the cold fill. Every scheduled flow
// must sit at a link at the level, or wait for the closure to reach it.
func TestReplayChecksEveryScheduledFlow(t *testing.T) {
	g, specs, rng := fuzzScenario(-111, 0x16, '\t', '.')
	churnEngines(t, g, specs, rng, 1, 3, false, checkWarmCold(t))
}
