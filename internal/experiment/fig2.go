package experiment

import (
	"fmt"

	"rackfab/internal/ringctl"
	"rackfab/internal/sim"
	"rackfab/internal/topo"
	"rackfab/internal/workload"
)

// Fig2 regenerates Figure 2: "Initially, the rack is configured using a
// grid topology of two lanes per link. Internal indications are fed to the
// Close Ring Control - CRC, that issues commands to the Physical Layer
// Primitives - PLP. These result in a torus topology running at one lane
// per link."
//
// The same uniform workload runs twice: on the untouched grid, and on the
// grid after the CRC executes the grid→torus PLP plan. The table compares
// mean hop count, latency, flow completion and aggregate power — the
// reconfiguration must cut hops and latency without exceeding the grid's
// power envelope.
func Fig2(cfg Config) (*Table, error) {
	side := cfg.Scale.pick(4, 8)
	flows := cfg.Scale.pick(60, 400)

	type phase struct {
		meanHops   float64
		latP50     sim.Duration
		latP99     sim.Duration
		fctP99     sim.Duration
		powerPeakW float64
		express    int
		commands   int
	}
	run := func(reconfigure bool) (*phase, error) {
		g := topo.NewGrid(side, side, topo.Options{LanesPerLink: 2})
		f, _, err := buildFabric(g, 42, nil)
		if err != nil {
			return nil, err
		}
		var commands int
		if reconfigure {
			ctl := ringctl.New(f.Engine(), f, ringctl.DefaultConfig())
			if err := ctl.ApplyGridToTorus(1); err != nil {
				return nil, err
			}
			// Let the PLP plan drain before offering traffic.
			if err := f.RunFor(50 * sim.Millisecond); err != nil {
				return nil, err
			}
			for _, d := range ctl.Decisions() {
				if d.Cmd != nil {
					commands++
				}
			}
		}
		// RPC-class traffic: the disaggregated-rack messages whose latency
		// the paper optimizes. Small messages are hop-dominated, so the
		// torus's shorter paths win even at one lane per link; bulk
		// transfers would instead prefer the 2-lane grid's bandwidth —
		// which is exactly the trade the CRC's price function arbitrates.
		rng := sim.NewRNG(7)
		specs := workload.Uniform(rng, workload.UniformConfig{
			Nodes: side * side, Flows: flows,
			Size:             workload.Fixed(512),
			MeanInterarrival: 2 * sim.Microsecond,
		})
		injected, err := runFlows(f, specs, sim.Time(10*sim.Second))
		if err != nil {
			return nil, err
		}
		st, err := hostStats(injected)
		if err != nil {
			return nil, err
		}
		mean, err := g.MeanHops()
		if err != nil {
			return nil, err
		}
		express := 0
		for _, e := range g.Edges() {
			if e.Express {
				express++
			}
		}
		return &phase{
			meanHops:   mean,
			latP50:     sim.Duration(f.Stats().Latency.Quantile(0.5)),
			latP99:     sim.Duration(f.Stats().Latency.Quantile(0.99)),
			fctP99:     st.p99,
			powerPeakW: f.PowerBudget().PeakW(),
			express:    express,
			commands:   commands,
		}, nil
	}

	res, err := Sweep(cfg, []Trial[*phase]{
		{Name: "grid", Run: func() (*phase, error) { return run(false) }},
		{Name: "torus", Run: func() (*phase, error) { return run(true) }},
	})
	if err != nil {
		return nil, err
	}
	grid, torus := res[0], res[1]

	t := &Table{
		Title:   fmt.Sprintf("Figure 2 — grid (2 lanes/link) vs CRC-reconfigured torus (1 lane/link), %dx%d rack", side, side),
		Columns: []string{"metric", "grid 2-lane", "torus 1-lane (PLP)", "delta"},
	}
	t.AddRow("mean hops", fmt.Sprintf("%.2f", grid.meanHops), fmt.Sprintf("%.2f", torus.meanHops), pct(torus.meanHops, grid.meanHops))
	t.AddRow("frame latency p50 (us)", us(grid.latP50), us(torus.latP50), pct(float64(torus.latP50), float64(grid.latP50)))
	t.AddRow("frame latency p99 (us)", us(grid.latP99), us(torus.latP99), pct(float64(torus.latP99), float64(grid.latP99)))
	t.AddRow("flow completion p99 (us)", us(grid.fctP99), us(torus.fctP99), pct(float64(torus.fctP99), float64(grid.fctP99)))
	t.AddRow("peak power (W)", fmt.Sprintf("%.1f", grid.powerPeakW), fmt.Sprintf("%.1f", torus.powerPeakW), pct(torus.powerPeakW, grid.powerPeakW))
	t.AddRow("express wrap channels", "0", fmt.Sprintf("%d", torus.express), "")
	t.AddRow("PLP commands issued", "0", fmt.Sprintf("%d", torus.commands), "")
	t.AddNote("the torus is reached purely through Break (PLP #1) and BypassOn (PLP #2); no recabling")
	t.AddNote("power must not rise: donated lanes drop from SerDes draw to retimer draw")
	return t, nil
}
