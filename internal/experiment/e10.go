package experiment

import (
	"fmt"

	"rackfab/internal/fabric"
	"rackfab/internal/faults"
	"rackfab/internal/fluid"
	"rackfab/internal/sim"
	"rackfab/internal/topo"
	"rackfab/internal/workload"
)

// e10Run is one run of a churn rung: its flow summary, the fault counters,
// and the solver's warm-start hit rate (fluid runs only).
type e10Run struct {
	flows   flowStats
	faults  faults.Stats
	warmPct float64
}

// e10Cell is one churn rung: the same permutation run fault-free (base)
// and under a deterministic fault schedule (churn) on one engine, plus the
// schedule's shape.
type e10Cell struct {
	base, churn e10Run
	flaps       int
	packet      bool
}

// e10Schedule derives the churn timeline from a baseline JCT so flaps land
// mid-traffic at every scale: eight Poisson link flaps spread across the
// first half of the run plus one node-loss pulse on the fabric's center
// node (all of whose flows must starve until the node returns). Pure
// function of the per-rung seed — byte-identical at any worker count.
func e10Schedule(kind string, side int, g *topo.Graph, jct sim.Duration) (*faults.Schedule, int) {
	const flapPulses = 8
	sched := faults.PoissonFlaps(sim.NewRNG(int64(side)*1009+int64(len(kind))), g, faults.FlapConfig{
		Flaps:      flapPulses,
		Start:      sim.Time(jct / 20),
		MeanGap:    jct / 16,
		MeanOutage: jct / 10,
	})
	center := g.NodeAt(side/2, side/2)
	sched = sched.Merge(faults.New(
		faults.Event{At: sim.Time(jct / 10 * 3), Target: int(center), Kind: faults.NodeDown},
		faults.Event{At: sim.Time(jct / 10 * 4), Target: int(center), Kind: faults.NodeUp},
	))
	return sched, flapPulses
}

func e10Graph(kind string, side int) *topo.Graph {
	if kind == "grid" {
		return topo.NewGrid(side, side, topo.Options{})
	}
	return topo.NewTorus(side, side, topo.Options{})
}

// e10Rung runs one churn rung on the fluid engine, or on the packet engine
// with frame trains (16 frames per event), which with the calendar queue
// make a 1024-node packet rung affordable. Both runs take the identical
// permutation, and the baseline's own JCT anchors the fault timeline. The
// two fluid runs and the schedule share the rung's graph, which fluid.Run
// restores after a faulted run; each packet run builds its own.
func e10Rung(kind string, side int, packet bool) (e10Cell, error) {
	name := fmt.Sprintf("%s/%d", kind, side*side)
	if packet {
		name = "packet " + name
	}
	g := e10Graph(kind, side)
	specs := workload.Permutation(sim.NewRNG(int64(side)*31), side*side, workload.Fixed(1e6))
	run := func(sched *faults.Schedule) (e10Run, error) {
		if !packet {
			res, err := fluid.Run(fluid.Config{Graph: g, Faults: sched}, specs)
			if err != nil {
				return e10Run{}, err
			}
			st, err := fluidStats(res)
			return e10Run{st, res.Faults, res.Solver.WarmHitPct()}, err
		}
		f, _, err := buildFabric(e10Graph(kind, side), int64(side)*31, nil, func(c *fabric.Config) {
			c.Host.TrainLength = fabric.TrainLength
		})
		if err != nil {
			return e10Run{}, err
		}
		if _, err := f.ScheduleFaults(sched, nil); err != nil {
			return e10Run{}, err
		}
		flows, err := runFlows(f, specs, sim.Time(60*sim.Second))
		if err != nil {
			return e10Run{}, err
		}
		st, err := hostStats(flows)
		return e10Run{flows: st, faults: f.FaultStats()}, err
	}
	c := e10Cell{packet: packet}
	var err error
	if c.base, err = run(nil); err != nil {
		return e10Cell{}, fmt.Errorf("%s baseline: %w", name, err)
	}
	var sched *faults.Schedule
	sched, c.flaps = e10Schedule(kind, side, g, c.base.flows.jct)
	if c.churn, err = run(sched); err != nil {
		return e10Cell{}, fmt.Errorf("%s churn: %w", name, err)
	}
	return c, nil
}

// E10 is the churn experiment: the fabric's *adaptive* claim made
// measurable. The same random permutation that E8 scales runs twice per
// rung — on a healthy fabric and under Poisson link flaps plus a node-loss
// pulse — and the table reports what the churn cost: throughput
// degradation (JCT-relative goodput), P99 FCT inflation, mean service
// recovery time per starvation episode (0 when an immediate reroute around
// the failure existed, the outage length when flows had to wait for the
// repair), reroute/starvation counts, and the warm-start oracle's hit rate
// under capacity perturbation. Full scale carries the 1024- and 4096-node
// fluid rungs (32×32 / 64×64) plus 1024-node *packet* rungs on both grid
// and torus — the frame-level fidelity anchors the calendar-queue engine
// and frame-train batching make affordable; Quick stays CI-sized with
// 64-node packet rungs exercising the same path.
func E10(cfg Config) (*Table, error) {
	sides := []int{8, 16}
	packetSide := 8
	if cfg.Scale == Full {
		sides = []int{32, 64}
		packetSide = 32
	}
	kinds := []string{"grid", "torus"}
	trials := make([]Trial[e10Cell], 0, (len(sides)+1)*len(kinds))
	for _, side := range sides {
		for _, kind := range kinds {
			side, kind := side, kind
			trials = append(trials, Trial[e10Cell]{
				Name: fmt.Sprintf("%s/%d", kind, side*side),
				Run:  func() (e10Cell, error) { return e10Rung(kind, side, false) },
			})
		}
	}
	// The packet rung runs both fabric shapes: the torus arm PR 6 opened
	// plus the grid arm that completes the fluid-vs-packet differential
	// story at the same scale (a grid's edge effects concentrate churn on
	// fewer detours, the harder case for the repair path).
	for _, kind := range kinds {
		kind := kind
		trials = append(trials, Trial[e10Cell]{
			Name: fmt.Sprintf("packet-%s/%d", kind, packetSide*packetSide),
			Run:  func() (e10Cell, error) { return e10Rung(kind, packetSide, true) },
		})
	}
	cells, err := Sweep(cfg, trials)
	if err != nil {
		return nil, err
	}

	t := &Table{
		Title: "E10 — churn: permutation under Poisson link flaps + node loss",
		Columns: []string{
			"nodes", "topology", "engine", "flaps",
			"base mean FCT (us)", "churn mean FCT (us)",
			"thr degr (%)", "p99 infl (%)", "recovery (us)",
			"reroutes", "starved", "warm fills (%)",
		},
	}
	i := 0
	addRow := func(side int, kind string, c e10Cell) {
		engine := "fluid"
		warm := fmt.Sprintf("%.1f", c.churn.warmPct)
		if c.packet {
			engine, warm = "packet", "-"
		}
		base, churn, fs := c.base.flows, c.churn.flows, c.churn.faults
		thrDegr := (1 - float64(base.jct)/float64(churn.jct)) * 100
		p99Infl := (float64(churn.p99)/float64(base.p99) - 1) * 100
		recovery := 0.0
		if fs.StarvedEpisodes > 0 {
			recovery = (fs.StarvedTime / sim.Duration(fs.StarvedEpisodes)).Microseconds()
		}
		t.AddRow(
			fmt.Sprintf("%d", side*side), kind, engine,
			fmt.Sprintf("%d", c.flaps),
			us(base.mean), us(churn.mean),
			fmt.Sprintf("%.1f", thrDegr),
			fmt.Sprintf("%.1f", p99Infl),
			fmt.Sprintf("%.2f", recovery),
			fmt.Sprintf("%d", fs.Reroutes),
			fmt.Sprintf("%d", fs.StarvedEpisodes),
			warm,
		)
	}
	for _, side := range sides {
		for _, kind := range kinds {
			addRow(side, kind, cells[i])
			i++
		}
	}
	for _, kind := range kinds {
		addRow(packetSide, kind, cells[i])
		i++
	}
	t.AddNote("each rung runs the identical permutation twice: healthy baseline, then under 8 Poisson link")
	t.AddNote("flaps (outage ~JCT/10) plus a node-loss pulse on the center node; the schedule is derived")
	t.AddNote("from the baseline JCT so churn always lands mid-traffic, and is byte-replayable from its seed")
	t.AddNote("thr degr = 1 − JCT_base/JCT_churn; recovery = mean starved time per episode (0 when every")
	t.AddNote("affected flow rerouted instantly); warm fills = refills the warm-start oracle replayed end to end")
	t.AddNote("negative degradation is real, not noise: a flap forces flows off the permutation's hot links,")
	t.AddNote("the VLB-like spreading the A3 ablation measures — adaptivity can beat a healthy-but-greedy fabric")
	t.AddNote("the packet rungs (grid + torus) replay the same churn construction frame by frame (trains of")
	t.AddNote("16) — the calendar-queue engine's fidelity anchors; fault columns from the fabric's accounting")
	return t, nil
}
