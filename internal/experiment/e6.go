package experiment

import (
	"fmt"

	"rackfab/internal/fec"
	"rackfab/internal/plp"
	"rackfab/internal/ringctl"
	"rackfab/internal/sim"
	"rackfab/internal/topo"
	"rackfab/internal/workload"
)

// E6 sweeps PLP #4, adaptive forward error correction, across channel
// quality. For each BER a fixed-size flow crosses a single noisy link
// under three FEC regimes: none (maximum goodput, no protection), the
// heaviest RS profile (always protected, always paying overhead and
// latency), and the CRC's adaptive controller (escalates only when the
// measured BER demands it). Adaptive should track the better of the two
// fixed points at every BER.
func E6(cfg Config) (*Table, error) {
	flowBytes := int64(cfg.Scale.pick(1e6, 4e6))
	bers := []float64{1e-12, 1e-8, 1e-6, 1e-5}
	if cfg.Scale == Full {
		bers = []float64{1e-12, 1e-10, 1e-8, 1e-7, 1e-6, 3e-6, 1e-5}
	}

	type outcome struct {
		fct     sim.Duration
		retx    int64
		profile string
	}
	run := func(ber float64, mode string) (*outcome, error) {
		g := topo.NewLine(2, topo.Options{LanesPerLink: 2})
		e := g.Edges()[0]
		for _, lane := range e.Link.Lanes {
			lane.SetBER(ber)
		}
		var ctl *ringctl.Config
		if mode == "adaptive" {
			c := ringctl.DefaultConfig()
			c.Epoch = 20 * sim.Microsecond
			c.EnableReconfig, c.EnableBypass, c.EnablePower, c.EnableRouting = false, false, false, false
			ctl = &c
		}
		f, _, err := buildFabric(g, 61, ctl)
		if err != nil {
			return nil, err
		}
		prof := ""
		switch mode {
		case "none":
			prof = "none"
		case "rs-fixed":
			if err := f.Execute(plp.Command{Kind: plp.SetFEC, Link: e.Index(), FECProfile: "rs(255,223)"}, nil); err != nil {
				return nil, err
			}
			prof = "rs(255,223)"
		case "adaptive":
			// Prime the channel so the first reports carry a measured BER:
			// a short leading transfer plays the role of live traffic.
			warmup := []workload.FlowSpec{{Src: 0, Dst: 1, Bytes: 256e3, Label: "warmup"}}
			if _, err := runFlows(f, warmup, sim.Time(5*sim.Second)); err != nil {
				return nil, err
			}
		}
		probe := []workload.FlowSpec{{Src: 0, Dst: 1, Bytes: flowBytes, Label: "probe"}}
		flows, err := runFlows(f, probe, f.Engine().Now().Add(60*sim.Second))
		if err != nil {
			return nil, err
		}
		if mode == "adaptive" {
			prof = e.Link.FEC().Name()
		}
		return &outcome{fct: flows[0].FCT(), retx: flows[0].Retransmits(), profile: prof}, nil
	}

	modes := []string{"none", "rs-fixed", "adaptive"}
	trials := make([]Trial[*outcome], 0, len(bers)*len(modes))
	for _, ber := range bers {
		for _, mode := range modes {
			trials = append(trials, Trial[*outcome]{
				Name: fmt.Sprintf("%s/ber=%.0e", mode, ber),
				Run:  func() (*outcome, error) { return run(ber, mode) },
			})
		}
	}
	res, err := Sweep(cfg, trials)
	if err != nil {
		return nil, err
	}

	t := &Table{
		Title:   fmt.Sprintf("E6 — adaptive FEC (PLP #4): %d B flow across one noisy link", flowBytes),
		Columns: []string{"BER", "none FCT(us)/retx", "rs(255,223) FCT(us)/retx", "adaptive FCT(us)/retx", "adaptive profile"},
	}
	for i, ber := range bers {
		none, rs, ad := res[3*i], res[3*i+1], res[3*i+2]
		t.AddRow(
			fmt.Sprintf("%.0e", ber),
			fmt.Sprintf("%s/%d", us(none.fct), none.retx),
			fmt.Sprintf("%s/%d", us(rs.fct), rs.retx),
			fmt.Sprintf("%s/%d", us(ad.fct), ad.retx),
			ad.profile,
		)
	}
	t.AddNote("expected shape: clean links — none wins (no overhead) and adaptive matches it;")
	t.AddNote("noisy links — none collapses into retransmissions while adaptive escalates the ladder (%s)", ladderNames())
	return t, nil
}

func ladderNames() string {
	names := ""
	for i, p := range fec.Ladder() {
		if i > 0 {
			names += " → "
		}
		names += p.Name()
	}
	return names
}
