package experiment

import (
	"fmt"

	"rackfab/internal/plp"
	"rackfab/internal/ringctl"
	"rackfab/internal/sim"
	"rackfab/internal/topo"
	"rackfab/internal/workload"
)

// E3 reproduces the paper's motivating MapReduce claim: "Since a reducer
// has to wait for data from all mappers, the slowest link pulls down the
// performance of an entire system."
//
// Mappers occupy the grid's left half and reducers its right half, so the
// whole shuffle crosses the column bisection — the cut links are the
// bottleneck and every reducer waits for flows that traverse them. The
// shuffle runs three times: (a) healthy fabric, static routing; (b) one
// bisection link degraded to a single lane, static routing — the slowest
// link gates the job; (c) the same degraded fabric with the Closed Ring
// Control pricing the slow link and shifting load to the healthy cut
// links. The adaptive fabric must recover most of the gap between (b) and
// (a).
func E3(cfg Config) (*Table, error) {
	side := cfg.Scale.pick(4, 6)
	bytesPerPair := int64(cfg.Scale.pick(32e3, 128e3))
	n := side * side

	run := func(degrade, adaptive bool) (sim.Duration, error) {
		var ctl *ringctl.Config
		if adaptive {
			c := ringctl.DefaultConfig()
			c.Epoch = 20 * sim.Microsecond
			c.EnableReconfig = false // isolate the routing response
			c.EnableBypass = false
			ctl = &c
		}
		g := topo.NewGrid(side, side, topo.Options{LanesPerLink: 2})
		f, _, err := buildFabric(g, 11, ctl)
		if err != nil {
			return 0, err
		}
		if degrade {
			// Degrade one bisection link: lose one of its two lanes.
			e, ok := g.EdgeBetween(g.NodeAt(side/2-1, side/2), g.NodeAt(side/2, side/2))
			if !ok {
				return 0, fmt.Errorf("experiment: bisection link missing")
			}
			if err := f.Execute(plp.Command{
				Kind: plp.LaneOff, Link: e.Index(), Lane: 1,
				Reason: "injected fault",
			}, nil); err != nil {
				return 0, err
			}
		}
		// Let the fault apply before traffic starts.
		if err := f.RunFor(sim.Millisecond); err != nil {
			return 0, err
		}
		// Left-half mappers, right-half reducers: the shuffle crosses the
		// bisection.
		var mappers, reducers []int
		for y := 0; y < side; y++ {
			for x := 0; x < side; x++ {
				if x < side/2 {
					mappers = append(mappers, int(g.NodeAt(x, y)))
				} else {
					reducers = append(reducers, int(g.NodeAt(x, y)))
				}
			}
		}
		rng := sim.NewRNG(3)
		specs := workload.Shuffle(rng, workload.ShuffleConfig{
			Mappers:      mappers,
			Reducers:     reducers,
			BytesPerPair: bytesPerPair,
			Jitter:       10 * sim.Microsecond,
		})
		flows, err := runFlows(f, specs, sim.Time(60*sim.Second))
		if err != nil {
			return 0, err
		}
		st, err := hostStats(flows)
		return st.jct, err
	}

	res, err := Sweep(cfg, []Trial[sim.Duration]{
		{Name: "healthy", Run: func() (sim.Duration, error) { return run(false, false) }},
		{Name: "degraded-static", Run: func() (sim.Duration, error) { return run(true, false) }},
		{Name: "degraded-adaptive", Run: func() (sim.Duration, error) { return run(true, true) }},
	})
	if err != nil {
		return nil, err
	}
	healthy, static, adaptive := res[0], res[1], res[2]

	t := &Table{
		Title:   fmt.Sprintf("E3 — MapReduce shuffle JCT, %d nodes (left→right bisection shuffle), %d B per pair", n, bytesPerPair),
		Columns: []string{"scenario", "shuffle JCT (ms)", "vs healthy"},
	}
	t.AddRow("healthy fabric, static routes", ms(healthy), "—")
	t.AddRow("one slow link, static routes", ms(static), pct(float64(static), float64(healthy)))
	t.AddRow("one slow link, CRC adaptive routing", ms(adaptive), pct(float64(adaptive), float64(healthy)))
	recovered := "n/a"
	if static > healthy {
		recovered = fmt.Sprintf("%.0f%%", float64(static-adaptive)/float64(static-healthy)*100)
	}
	t.AddNote("gap recovered by adaptive routing: %s", recovered)
	t.AddNote("fault: one bisection link broken from 2 lanes to 1 (half bandwidth) via PLP #3")
	return t, nil
}
