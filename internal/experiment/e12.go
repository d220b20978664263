package experiment

import (
	"fmt"
	"time"

	"rackfab"
)

// E12 is the PL2-style SLO reproduction inside our fabric: the traffic that
// actually hurts a rack — 16→1 incast and a bulk-synchronous collective —
// measured by tail predictability (SLO attainment, stretch) rather than
// mean throughput. The incast sweep crosses routing modes: shortest-path,
// open-loop VLB, and VLB under the receiver-driven token path (grants paced
// at the receiver's drain rate, credit window = one flow), on both engines.
// The collective arm runs the recursive-halving/doubling all-reduce through
// the phase barrier (RunPhases) healthy and under Poisson link flaps landing
// mid-collective — a fault scenario no open-loop experiment reaches, since
// the barrier stretches the exposure window. Unlike the internal-API
// experiments, every trial drives the public Cluster façade end to end.

// e12Cell is one arm reduced to engine-neutral scalars.
type e12Cell struct {
	engine, mode string
	flows        int64
	attainPct    float64
	p99Stretch   float64
	jct          time.Duration
	reroutes     int64
}

// e12Seed fixes every e12 cluster and fault draw; trials never share state.
const e12Seed = 12

// e12Incast runs one 16→1 incast arm: fanIn sources burst 128 KiB each
// into the fabric's center node under the given admission/routing mode.
// k is the SLO multiplier (0 = the default of 4); tr, when non-nil,
// adopts the trial's flight-recorder trace under name.
func e12Incast(engine rackfab.Engine, mode string, side int, k float64, tr *rackfab.TraceSet, name string) (e12Cell, error) {
	c, err := rackfab.New(rackfab.Config{
		Topology: rackfab.Grid, Width: side, Height: side,
		Seed: e12Seed, Engine: engine,
		SLOTargetX: k, Trace: tr != nil,
	})
	if err != nil {
		return e12Cell{}, err
	}
	const fanIn = 16
	specs := rackfab.IncastTraffic(c, side*side/2, fanIn, 128<<10)
	switch mode {
	case "sp", "fair":
		// Default routing; "fair" names the fluid engine's max-min share.
	case "vlb":
		c.SetValiantRouting(true)
	case "token":
		// The token path rides the same VLB datapath — the delta vs "vlb"
		// is admission alone.
		c.SetValiantRouting(true)
		if specs, err = rackfab.TokenPaced(c, specs, 0); err != nil {
			return e12Cell{}, err
		}
	default:
		return e12Cell{}, fmt.Errorf("e12: unknown incast mode %q", mode)
	}
	flows, err := c.Inject(specs)
	if err != nil {
		return e12Cell{}, err
	}
	if err := c.RunUntilDone(60 * time.Second); err != nil {
		return e12Cell{}, fmt.Errorf("e12 incast %s/%s: %w", engine, mode, err)
	}
	jct, err := rackfab.JobCompletionTime(flows)
	if err != nil {
		return e12Cell{}, err
	}
	rep := c.Report()
	if rep.SLO.Flows != fanIn {
		return e12Cell{}, fmt.Errorf("e12 incast %s/%s: SLO population %d, want %d", engine, mode, rep.SLO.Flows, fanIn)
	}
	tr.Add(name, c.Trace())
	return e12Cell{
		engine: string(engine), mode: "incast/" + mode,
		flows: rep.SLO.Flows, attainPct: rep.SLO.AttainPct,
		p99Stretch: rep.SLO.P99Stretch, jct: jct,
		reroutes: rep.Faults.Reroutes,
	}, nil
}

// e12Collective runs the halving-doubling all-reduce through the phase
// barrier, healthy or with Poisson link flaps derived from the healthy
// JCT so the outages land mid-collective at every scale.
func e12Collective(engine rackfab.Engine, side int, faulted bool, tr *rackfab.TraceSet, name string) (e12Cell, error) {
	run := func(sched *rackfab.FaultSchedule) (*rackfab.Cluster, time.Duration, error) {
		c, err := rackfab.New(rackfab.Config{
			Topology: rackfab.Grid, Width: side, Height: side,
			Seed: e12Seed, Engine: engine, Faults: sched,
			Trace: tr != nil,
		})
		if err != nil {
			return nil, 0, err
		}
		phases, err := rackfab.HalvingDoublingTraffic(c, 1<<20)
		if err != nil {
			return nil, 0, err
		}
		out, err := c.RunPhases(phases, 10*time.Minute)
		if err != nil {
			return nil, 0, err
		}
		var all []*rackfab.Flow
		for _, ph := range out {
			all = append(all, ph...)
		}
		jct, err := rackfab.JobCompletionTime(all)
		if err != nil {
			return nil, 0, err
		}
		return c, jct, nil
	}

	c, jct, err := run(nil)
	if err != nil {
		return e12Cell{}, fmt.Errorf("e12 collective %s healthy: %w", engine, err)
	}
	mode := "allreduce/healthy"
	if faulted {
		sched := rackfab.PoissonFlaps(c, rackfab.FlapConfig{
			Flaps: 4, Seed: e12Seed,
			Start: jct / 4, MeanGap: jct / 8, MeanOutage: jct / 10,
		})
		if c, jct, err = run(sched); err != nil {
			return e12Cell{}, fmt.Errorf("e12 collective %s flaps: %w", engine, err)
		}
		mode = "allreduce/flaps"
	}
	// Only the measured cluster's trace is adopted; the healthy probe run a
	// faulted arm makes first is sizing-only and its recorder is dropped.
	tr.Add(name, c.Trace())
	rep := c.Report()
	return e12Cell{
		engine: string(engine), mode: mode,
		flows: rep.SLO.Flows, attainPct: rep.SLO.AttainPct,
		p99Stretch: rep.SLO.P99Stretch, jct: jct,
		reroutes: rep.Faults.Reroutes,
	}, nil
}

// E12 sweeps incast admission modes and the phased collective on both
// engines. Quick runs the 64-node fabric end to end; Full moves the incast
// sweep and the fluid collective to 1024 nodes. The packet collective rung
// stays at 64 nodes on both scales — 2·log2(N) barrier phases of frame-level
// all-reduce at 1024 would dominate the whole suite for no extra coverage
// (the 1024-node packet fidelity anchor is e10's job).
func E12(cfg Config) (*Table, error) {
	side := cfg.Scale.pick(8, 32)
	const packetCollectiveSide = 8
	fluid, packet := rackfab.EngineFluid, rackfab.EnginePacket

	tr := cfg.Trace

	type arm struct {
		name  string
		nodes int
		run   func() (e12Cell, error)
	}
	incast := func(name string, eng rackfab.Engine, mode string, k float64) func() (e12Cell, error) {
		return func() (e12Cell, error) { return e12Incast(eng, mode, side, k, tr, name) }
	}
	arms := []arm{
		{"incast/packet/sp", side * side, incast("incast/packet/sp", packet, "sp", 0)},
		{"incast/packet/vlb", side * side, incast("incast/packet/vlb", packet, "vlb", 0)},
		{"incast/packet/token", side * side, incast("incast/packet/token", packet, "token", 0)},
		{"incast/fluid/fair", side * side, incast("incast/fluid/fair", fluid, "fair", 0)},
		{"incast/fluid/token", side * side, incast("incast/fluid/token", fluid, "token", 0)},
		{"allreduce/fluid/healthy", side * side,
			func() (e12Cell, error) { return e12Collective(fluid, side, false, tr, "allreduce/fluid/healthy") }},
		{"allreduce/fluid/flaps", side * side,
			func() (e12Cell, error) { return e12Collective(fluid, side, true, tr, "allreduce/fluid/flaps") }},
		{"allreduce/packet/healthy", packetCollectiveSide * packetCollectiveSide,
			func() (e12Cell, error) {
				return e12Collective(packet, packetCollectiveSide, false, tr, "allreduce/packet/healthy")
			}},
		{"allreduce/packet/flaps", packetCollectiveSide * packetCollectiveSide,
			func() (e12Cell, error) {
				return e12Collective(packet, packetCollectiveSide, true, tr, "allreduce/packet/flaps")
			}},
	}
	// SLO-tightness sweep: how attainment degrades as the target multiplier
	// k shrinks, open-loop VLB vs the token path. Always the quick fabric —
	// the question is the admission-scheme crossover, not scale, and the two
	// curves separate fully at 64 nodes.
	const kSweepSide = 8
	for _, k := range []float64{1.5, 2, 4, 8} {
		for _, mode := range []string{"vlb", "token"} {
			k, mode := k, mode
			name := fmt.Sprintf("slo-k/packet/%s/k%g", mode, k)
			arms = append(arms, arm{name, kSweepSide * kSweepSide,
				func() (e12Cell, error) { return e12Incast(packet, mode, kSweepSide, k, tr, name) }})
		}
	}
	trials := make([]Trial[e12Cell], len(arms))
	for i, a := range arms {
		trials[i] = Trial[e12Cell]{Name: a.name, Run: a.run}
	}
	cells, err := Sweep(cfg, trials)
	if err != nil {
		return nil, err
	}

	t := &Table{
		Title: "E12 — SLO attainment: incast admission modes + phased all-reduce (PL2-style)",
		Columns: []string{
			"trial", "nodes", "engine", "mode",
			"flows", "attain (%)", "p99 stretch", "jct (us)", "reroutes",
		},
	}
	for i, c := range cells {
		t.AddRow(
			arms[i].name,
			fmt.Sprintf("%d", arms[i].nodes),
			c.engine, c.mode,
			fmt.Sprintf("%d", c.flows),
			fmt.Sprintf("%.1f", c.attainPct),
			fmt.Sprintf("%.2f", c.p99Stretch),
			fmt.Sprintf("%.2f", float64(c.jct.Nanoseconds())/1e3),
			fmt.Sprintf("%d", c.reroutes),
		)
	}
	t.AddNote("attain = share of flows finishing within 4x their ideal FCT (bytes at wire rate + hops x 450ns);")
	t.AddNote("stretch = FCT/ideal. incast: 16 sources burst 128KiB into the center node; token = the")
	t.AddNote("receiver-driven grant path (credit window = one flow) over the same VLB datapath, so the")
	t.AddNote("token-vs-vlb rows isolate admission control — pacing trades a serialized-but-bounded tail")
	t.AddNote("for the open-loop collision tail. allreduce = recursive halving/doubling through the phase")
	t.AddNote("barrier (RunPhases); flaps = 4 Poisson link flaps derived from the healthy JCT so outages")
	t.AddNote("land mid-collective. every trial drives the public Cluster facade on its own seeded world.")
	t.AddNote("slo-k rows tighten/loosen the SLO multiplier k (attain = within kx ideal) on the 64-node")
	t.AddNote("packet incast: the open-loop VLB tail collapses as k shrinks while token pacing's")
	t.AddNote("serialized-but-bounded completions hold attainment flat far tighter down the k axis")
	return t, nil
}
