package experiment

import (
	"fmt"

	"rackfab/internal/fabric"
	"rackfab/internal/ringctl"
	"rackfab/internal/sim"
	"rackfab/internal/topo"
	"rackfab/internal/workload"
)

// E4 exercises the power-budget constraint: "rack-scale systems inherit
// the power budget of a traditional rack". The fabric runs the same load
// twice — uncapped, and with a cap below the fabric's natural draw plus
// the CRC power policy (PLP #3 lane shedding) enforcing it. The capped run
// must converge under the budget; the latency column shows what the
// headroom costs.
func E4(cfg Config) (*Table, error) {
	side := cfg.Scale.pick(4, 6)
	flowsPerLoad := cfg.Scale.pick(60, 300)
	n := side * side

	type result struct {
		peakW     float64
		finalW    float64
		overTime  sim.Duration
		fctP99    sim.Duration
		lanesShed int
	}
	run := func(capW float64, flows int) (*result, error) {
		cfg := ringctl.DefaultConfig()
		cfg.Epoch = 50 * sim.Microsecond
		cfg.EnableReconfig = false
		cfg.EnableBypass = false
		cfg.EnableFEC = false
		g := topo.NewGrid(side, side, topo.Options{LanesPerLink: 2})
		f, ctl, err := buildFabric(g, 21, &cfg, func(c *fabric.Config) { c.PowerCapW = capW })
		if err != nil {
			return nil, err
		}

		rng := sim.NewRNG(5)
		specs := workload.Uniform(rng, workload.UniformConfig{
			Nodes: n, Flows: flows,
			Size:             workload.Fixed(64e3),
			MeanInterarrival: 3 * sim.Microsecond,
		})
		injected, err := runFlows(f, specs, sim.Time(30*sim.Second))
		if err != nil {
			return nil, err
		}
		st, err := hostStats(injected)
		if err != nil {
			return nil, err
		}
		shed := 0
		for _, d := range ctl.Decisions() {
			if d.Policy == "power" && d.Cmd != nil {
				shed++
			}
		}
		return &result{
			peakW:     f.PowerBudget().PeakW(),
			finalW:    f.TotalPowerW(),
			overTime:  f.PowerBudget().OverTime(),
			fctP99:    st.p99,
			lanesShed: shed,
		}, nil
	}

	// Establish the natural draw, then cap at 94% of it. The cap depends
	// on the uncapped result, so the two runs go in order.
	free, err := run(0, flowsPerLoad)
	if err != nil {
		return nil, fmt.Errorf("experiment: uncapped run: %w", err)
	}
	capW := free.peakW * 0.94
	capped, err := run(capW, flowsPerLoad)
	if err != nil {
		return nil, fmt.Errorf("experiment: capped run: %w", err)
	}

	t := &Table{
		Title:   fmt.Sprintf("E4 — power budget enforcement, %d-node grid, cap = 94%% of natural draw (%.0f W)", n, capW),
		Columns: []string{"metric", "uncapped", "capped + CRC power policy"},
	}
	t.AddRow("peak power (W)", fmt.Sprintf("%.1f", free.peakW), fmt.Sprintf("%.1f", capped.peakW))
	t.AddRow("final power (W)", fmt.Sprintf("%.1f", free.finalW), fmt.Sprintf("%.1f", capped.finalW))
	t.AddRow("time over budget (us)", "—", us(capped.overTime))
	t.AddRow("flow completion p99 (us)", us(free.fctP99), us(capped.fctP99))
	t.AddRow("power commands issued", "0", fmt.Sprintf("%d", capped.lanesShed))
	t.AddNote("actuator: PLP #3 lane-off on the least-utilized multi-lane links")
	t.AddNote("the capped fabric must end at or below %.0f W; latency may rise — that is the budget trade", capW)
	return t, nil
}
