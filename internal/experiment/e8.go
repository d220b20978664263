package experiment

import (
	"fmt"
	"math"
	"time"

	"rackfab/internal/fluid"
	"rackfab/internal/sim"
	"rackfab/internal/topo"
	"rackfab/internal/workload"
)

// e8CrossSide is the grid side the fluid-vs-packet cross-check runs at.
// The rung is explicit in the trial spec (crosscheck/16 in the sweep) so
// the table says which scale the validation ladder was anchored at; the
// packet engine bounds it to small fabrics.
const e8CrossSide = 4

// e8Cell is one E8 trial result: a scale rung (res, its flow summary and
// wall time) or the cross-check note's delta.
type e8Cell struct {
	res   *fluid.Result
	stats flowStats
	wall  time.Duration
	delta float64
}

// e8Rung runs one scale-sweep trial: the given workload on a kind×side²
// fabric through the fluid engine. A run that completes no flows surfaces
// ErrNoCompletedFlows tagged with the rung, from the 64-node rung to the
// 4096-node one, instead of folding NaNs into the table.
func e8Rung(kind string, side int, specs []workload.FlowSpec) (e8Cell, error) {
	var g *topo.Graph
	if kind == "grid" {
		g = topo.NewGrid(side, side, topo.Options{})
	} else {
		g = topo.NewTorus(side, side, topo.Options{})
	}
	start := time.Now() //det:wallclock feeds only the table's wall column, which is Volatile-masked out of fingerprints
	res, err := fluid.Run(fluid.Config{Graph: g}, specs)
	if err != nil {
		return e8Cell{}, err
	}
	st, err := fluidStats(res)
	if err != nil {
		return e8Cell{}, fmt.Errorf("%s/%d: %w", kind, side*side, err)
	}
	return e8Cell{res: res, stats: st, wall: time.Since(start)}, nil //det:wallclock feeds only the table's wall column, which is Volatile-masked out of fingerprints
}

// E8 is the scale experiment: "rack-scale systems contain hundreds to
// thousands of connected nodes". The fluid engine sweeps grid and torus
// fabrics from 64 to 4096 nodes under a simultaneous random permutation —
// every node sends to a distinct partner, so every flow contends for the
// bisection and topology (not load level) decides the outcome. The
// 4096-node (64×64) rung runs at Full scale only: one trial is seconds of
// warm-start solver work, not CI material. A cross-check trial validates
// the fluid engine against the packet engine on a small fabric (the
// paper's validated-small-sim → large-sim ladder, one rung up from E7).
func E8(cfg Config) (*Table, error) {
	sides := []int{8, 16}
	if cfg.Scale == Full {
		sides = []int{8, 16, 32, 64}
	}

	kinds := []string{"grid", "torus"}
	trials := make([]Trial[e8Cell], 0, len(sides)*len(kinds)+1)
	for _, side := range sides {
		for _, kind := range kinds {
			side, kind := side, kind
			trials = append(trials, Trial[e8Cell]{
				Name: fmt.Sprintf("%s/%d", kind, side*side),
				Run: func() (e8Cell, error) {
					// Regenerate the workload inside the trial from the same
					// per-side seed: grid and torus see identical
					// permutations without sharing a spec slice across
					// concurrently running trials.
					rng := sim.NewRNG(int64(side))
					specs := workload.Permutation(rng, side*side, workload.Fixed(1e6))
					return e8Rung(kind, side, specs)
				},
			})
		}
	}
	// Cross-check: fluid vs packet on the e8CrossSide² fabric with light
	// load (the regime where the fluid approximation should be tight).
	trials = append(trials, Trial[e8Cell]{
		Name: fmt.Sprintf("crosscheck/%d", e8CrossSide*e8CrossSide),
		Run: func() (e8Cell, error) {
			rng := sim.NewRNG(99)
			delta, err := crossCheck(e8CrossSide, workload.Uniform(rng, workload.UniformConfig{
				Nodes: e8CrossSide * e8CrossSide, Flows: 12,
				Size:             workload.Fixed(1e6),
				MeanInterarrival: 400 * sim.Microsecond, // light: no sharing
			}))
			if err != nil {
				return e8Cell{}, err
			}
			return e8Cell{delta: delta}, nil
		},
	})
	cells, err := Sweep(cfg, trials)
	if err != nil {
		return nil, err
	}

	t := &Table{
		Title:   "E8 — scale sweep (fluid engine): random permutation on grid vs torus",
		Columns: []string{"nodes", "topology", "mean FCT (us)", "p99 FCT (us)", "JCT (ms)", "events", "warm fills (%)", "wall (ms)"},
	}
	// Wall time is real elapsed time: reproducible in shape, not in bytes.
	t.MarkVolatile("wall (ms)")
	i := 0
	for _, side := range sides {
		for _, kind := range kinds {
			c := cells[i]
			i++
			t.AddRow(
				fmt.Sprintf("%d", side*side), kind,
				us(c.stats.mean), us(c.stats.p99), ms(c.stats.jct),
				fmt.Sprintf("%d", c.res.Events),
				fmt.Sprintf("%.1f", c.res.Solver.WarmHitPct()),
				fmt.Sprintf("%d", c.wall.Milliseconds()),
			)
		}
	}
	t.AddNote("fluid-vs-packet mean-FCT delta on a %d-node grid cross-check: %.1f%%", e8CrossSide*e8CrossSide, cells[i].delta)
	t.AddNote("wall (ms) is per-trial wall clock; with -parallel > 1 concurrent trials share cores,")
	t.AddNote("so cells overstate solver cost — use -parallel 1 when quoting absolute wall numbers")
	t.AddNote("torus wins mean FCT at every size (shorter paths, less sharing); at 1024+ nodes the p99 tail")
	t.AddNote("can invert under the fluid engine's single-path routing — the pathology the CRC's price-driven multi-path routing exists to fix")
	return t, nil
}

// crossCheck runs the identical workload on both engines (a side×side grid)
// and returns the mean-FCT percentage difference. A run that completes no
// flows on either engine yields ErrNoCompletedFlows rather than a NaN
// delta, and a packet run that leaves a flow unfinished errors: the
// comparison is only meaningful over the full workload.
func crossCheck(side int, specs []workload.FlowSpec) (float64, error) {
	res, err := fluid.Run(fluid.Config{Graph: topo.NewGrid(side, side, topo.Options{})}, specs)
	if err != nil {
		return 0, err
	}
	fl, err := fluidStats(res)
	if err != nil {
		return 0, fmt.Errorf("fluid engine: %w", err)
	}
	f, _, err := buildFabric(topo.NewGrid(side, side, topo.Options{}), 99, nil)
	if err != nil {
		return 0, err
	}
	flows, err := runFlows(f, specs, sim.Time(60*sim.Second))
	if err != nil {
		return 0, err
	}
	pk, err := hostStats(flows)
	if err != nil {
		return 0, fmt.Errorf("packet engine: %w", err)
	}
	return math.Abs(float64(fl.mean-pk.mean)) / float64(pk.mean) * 100, nil
}
