package experiment

import (
	"fmt"

	"rackfab/internal/ringctl"
	"rackfab/internal/sim"
	"rackfab/internal/topo"
	"rackfab/internal/workload"
)

// A3 compares the routing disciplines available to the fabric under an
// adversarial permutation: oblivious shortest-path (ECMP), oblivious
// Valiant load balancing (pivot through a random node — bounded worst
// case, doubled path length), and the CRC's adaptive price-driven routing
// (the paper's approach: measure, price, re-route). It is the ablation
// that situates the Closed Ring Control between the two classical
// oblivious designs.
func A3(cfg Config) (*Table, error) {
	side := cfg.Scale.pick(4, 6)
	flowBytes := int64(cfg.Scale.pick(256e3, 1e6))
	n := side * side

	type result struct {
		flowStats
		meanHops float64
	}
	run := func(mode string) (*result, error) {
		var ctl *ringctl.Config
		if mode == "adaptive" {
			c := ringctl.DefaultConfig()
			c.Epoch = 30 * sim.Microsecond
			c.EnableReconfig, c.EnableBypass, c.EnablePower, c.EnableFEC = false, false, false, false
			ctl = &c
		}
		f, _, err := buildFabric(topo.NewGrid(side, side, topo.Options{LanesPerLink: 2}), 91, ctl)
		if err != nil {
			return nil, err
		}
		f.SetVLB(mode == "vlb")
		rng := sim.NewRNG(19)
		specs := workload.Permutation(rng, n, workload.Fixed(flowBytes))
		flows, err := runFlows(f, specs, sim.Time(60*sim.Second))
		if err != nil {
			return nil, err
		}
		st, err := hostStats(flows)
		if err != nil {
			return nil, err
		}
		return &result{st, f.Stats().Hops.Mean()}, nil
	}

	modes := []string{"shortest", "vlb", "adaptive"}
	trials := make([]Trial[*result], 0, len(modes))
	for _, mode := range modes {
		trials = append(trials, Trial[*result]{
			Name: mode,
			Run:  func() (*result, error) { return run(mode) },
		})
	}
	res, err := Sweep(cfg, trials)
	if err != nil {
		return nil, err
	}

	t := &Table{
		Title:   fmt.Sprintf("A3 — routing disciplines under a random permutation, %d nodes, %d B flows", n, flowBytes),
		Columns: []string{"routing", "JCT (ms)", "FCT p99 (us)", "mean hops"},
	}
	for i, mode := range modes {
		r := res[i]
		t.AddRow(mode, ms(r.jct), us(r.p99), fmt.Sprintf("%.2f", r.meanHops))
	}
	t.AddNote("VLB pays ~2x hops for oblivious worst-case guarantees; the CRC adapts with measured prices instead")
	return t, nil
}
