package experiment

import (
	"fmt"

	"rackfab/internal/ringctl"
	"rackfab/internal/sim"
	"rackfab/internal/topo"
	"rackfab/internal/workload"
)

// A1 ablates the CRC price weights under hotspot traffic: the full price
// function against latency-only, congestion-only, and no re-pricing at
// all. It shows which feedback terms the Closed Ring Control actually
// needs to tame a skewed load.
func A1(cfg Config) (*Table, error) {
	side := cfg.Scale.pick(4, 6)
	flows := cfg.Scale.pick(120, 600)
	n := side * side

	run := func(weights *ringctl.PriceWeights) (flowStats, error) {
		var ctl *ringctl.Config
		if weights != nil {
			c := ringctl.DefaultConfig()
			c.Weights = *weights
			c.Epoch = 30 * sim.Microsecond
			c.EnableReconfig, c.EnableBypass, c.EnablePower, c.EnableFEC = false, false, false, false
			ctl = &c
		}
		f, _, err := buildFabric(topo.NewGrid(side, side, topo.Options{LanesPerLink: 2}), 71, ctl)
		if err != nil {
			return flowStats{}, err
		}
		rng := sim.NewRNG(13)
		specs := workload.Hotspot(rng, workload.HotspotConfig{
			Nodes: n, Flows: flows,
			Size:             workload.Fixed(64e3),
			HotNodes:         2,
			HotFraction:      0.6,
			MeanInterarrival: 2 * sim.Microsecond,
		})
		injected, err := runFlows(f, specs, sim.Time(30*sim.Second))
		if err != nil {
			return flowStats{}, err
		}
		return hostStats(injected)
	}

	full := ringctl.DefaultWeights()
	latOnly := ringctl.PriceWeights{Latency: 1}
	congOnly := ringctl.PriceWeights{Congestion: 1}

	cases := []struct {
		name string
		w    *ringctl.PriceWeights
	}{
		{"static (no CRC)", nil},
		{"full price function", &full},
		{"latency term only", &latOnly},
		{"congestion term only", &congOnly},
	}
	trials := make([]Trial[flowStats], 0, len(cases))
	for _, c := range cases {
		trials = append(trials, Trial[flowStats]{
			Name: c.name,
			Run:  func() (flowStats, error) { return run(c.w) },
		})
	}
	res, err := Sweep(cfg, trials)
	if err != nil {
		return nil, err
	}

	t := &Table{
		Title:   fmt.Sprintf("A1 — price-weight ablation, hotspot load on %d nodes (2 hot)", n),
		Columns: []string{"pricing", "FCT p50 (us)", "FCT p99 (us)"},
	}
	for i, c := range cases {
		t.AddRow(c.name, us(res[i].p50), us(res[i].p99))
	}
	t.AddNote("when the hot endpoints' own links are the bottleneck, no re-routing can create capacity:")
	t.AddNote("the ablation isolates how each price term shifts the tail around that floor (congestion pricing")
	t.AddNote("does most of the useful work; latency-only pricing reacts too slowly to help)")
	return t, nil
}

// A2 ablates the bypass policy: elephants with and without the express
// channels of PLP #2, CRC otherwise identical. The paper frames bypass as
// "pre-fetching at the physical layer"; the elephant completion times are
// where it pays. Each arm stops at the event that completes its elephant,
// with background flows still in flight, and counts the express channels
// standing at that instant.
func A2(cfg Config) (*Table, error) {
	scale := cfg.Scale
	side := scale.pick(4, 6)
	elephantBytes := int64(scale.pick(8e6, 64e6))
	n := side * side

	run := func(bypass bool) (sim.Duration, int, error) {
		ctl := ringctl.DefaultConfig()
		ctl.Epoch = 50 * sim.Microsecond
		ctl.EnableReconfig, ctl.EnablePower, ctl.EnableFEC = false, false, false
		// Price-driven re-routing is ablated out on both arms: with it on,
		// the mice would discover the cheap express edge and dilute the
		// elephant's dedicated lane — a real interaction, but A3's story;
		// this table isolates PLP #2. Shortest-path routing still adopts
		// the express for the elephant (one hop beats six).
		ctl.EnableRouting = false
		ctl.EnableBypass = bypass
		g := topo.NewGrid(side, side, topo.Options{LanesPerLink: 2})
		f, _, err := buildFabric(g, 81, &ctl)
		if err != nil {
			return 0, 0, err
		}

		// One elephant crosses the rack through sustained cross traffic:
		// streams of medium flows occupy every interior link for the
		// elephant's whole lifetime, crushing its shared-path fair share
		// while staying individually smaller than the elephant (so the
		// elephant tops the CRC's flow ranking). This is the regime
		// where a dedicated express lane beats the congested bundle and
		// σ* comes out positive — the physical-layer pre-fetch the paper
		// describes.
		at := func(x, y int) int { return y*side + x }
		specs := []workload.FlowSpec{
			{Src: 0, Dst: n - 1, Bytes: elephantBytes, Label: "elephant"},
		}
		stream := func(src, dst int) {
			const every = 30 * sim.Microsecond
			window := sim.Duration(scale.pick(8, 20)) * sim.Millisecond
			for at := sim.Time(0); at < sim.Time(window); at = at.Add(every) {
				specs = append(specs, workload.FlowSpec{
					Src: src, Dst: dst, Bytes: 128e3, At: at, Label: "bg",
				})
			}
		}
		for x := 0; x < side; x++ {
			stream(at(x, 0), at(x, side-1))
			stream(at(x, 1), at(x, side-1))
		}
		for y := 0; y < side; y++ {
			stream(at(0, y), at(side-1, y))
			stream(at(1, y), at(side-1, y))
		}
		flows, err := runFlows(f, specs, sim.Time(60*sim.Second), 0)
		if err != nil {
			return 0, 0, err
		}
		express := 0
		for _, e := range g.Edges() {
			if e.Express {
				express++
			}
		}
		return flows[0].FCT(), express, nil
	}

	type arm struct {
		fct      sim.Duration
		channels int
	}
	res, err := Sweep(cfg, []Trial[arm]{
		{Name: "no-bypass", Run: func() (arm, error) {
			fct, ch, err := run(false)
			return arm{fct, ch}, err
		}},
		{Name: "bypass", Run: func() (arm, error) {
			fct, ch, err := run(true)
			return arm{fct, ch}, err
		}},
	})
	if err != nil {
		return nil, err
	}
	without, with, channels := res[0].fct, res[1].fct, res[1].channels

	t := &Table{
		Title:   fmt.Sprintf("A2 — bypass ablation: %d MB elephant through cross traffic, %d nodes", elephantBytes/1e6, n),
		Columns: []string{"configuration", "elephant FCT (ms)", "express channels built"},
	}
	t.AddRow("CRC without bypass", ms(without), "0")
	t.AddRow("CRC with bypass (PLP #2)", ms(with), fmt.Sprintf("%d", channels))
	t.AddRow("elephant speedup", pct(float64(with), float64(without)), "")
	t.AddNote("bypass provisions a dedicated express lane once the elephant's remaining bytes clear σ*")
	return t, nil
}
