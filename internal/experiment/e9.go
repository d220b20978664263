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

// E9 extends the adaptive-FEC evaluation (E6) to bursty channels — the
// Gilbert–Elliott regime where a link is pristine most of the time and
// briefly terrible. This is the case that breaks *any* fixed provisioning
// choice: a code sized for the average BER drowns during bursts, a code
// sized for bursts taxes every clean hour. Runtime adaptation (PLP #4) is
// the paper's answer; this table quantifies it.
func E9(cfg Config) (*Table, error) {
	flowBytes := int64(cfg.Scale.pick(2e6, 8e6))
	streamFlows := cfg.Scale.pick(8, 24)

	type outcome struct {
		totalFCT sim.Duration
		retx     int64
		switches int
	}
	run := func(mode string) (*outcome, error) {
		g := topo.NewLine(2, topo.Options{LanesPerLink: 2})
		e := g.Edges()[0]
		// Burst channel: clean 1e-12 floor, 3e-5 bursts, 90% good dwell.
		chRng := sim.NewRNG(77)
		for _, lane := range e.Link.Lanes {
			ch, err := phy.NewBurstChannel(chRng.SplitIndexed("burst", lane.Index),
				1e-12, 3e-5, 1800*sim.Microsecond, 200*sim.Microsecond)
			if err != nil {
				return nil, err
			}
			lane.AttachBurstChannel(ch)
		}
		var ctlCfg *ringctl.Config
		if mode == "adaptive" || mode == "adaptive-sticky" {
			c := ringctl.DefaultConfig()
			c.Epoch = 50 * sim.Microsecond
			c.EnableReconfig, c.EnableBypass, c.EnablePower, c.EnableRouting = false, false, false, false
			if mode == "adaptive-sticky" {
				// Dwell sized above the burst period (2 ms / 50 µs epochs =
				// 40): the controller escalates once and holds through the
				// clean gaps instead of paying switch downtime every cycle.
				c.FECDeescalateDwell = 64
			}
			ctlCfg = &c
		}
		f, ctl, err := buildFabric(g, 62, ctlCfg)
		if err != nil {
			return nil, err
		}
		if mode == "rs-fixed" {
			if err := f.Execute(plp.Command{Kind: plp.SetFEC, Link: e.Index(), FECProfile: "rs(255,223)"}, nil); err != nil {
				return nil, err
			}
		}
		// A stream of transfers spanning many burst cycles.
		specs := make([]workload.FlowSpec, streamFlows)
		for i := range specs {
			specs[i] = workload.FlowSpec{Src: 0, Dst: 1, Bytes: flowBytes, Label: "stream"}
		}
		flows, err := runFlows(f, specs, sim.Time(120*sim.Second))
		if err != nil {
			return nil, err
		}
		out := &outcome{}
		for _, fl := range flows {
			out.totalFCT += fl.FCT()
			out.retx += fl.Retransmits()
		}
		if ctl != nil {
			for _, d := range ctl.Decisions() {
				if d.Policy == "fec" && d.Cmd != nil {
					out.switches++
				}
			}
		}
		return out, nil
	}

	modes := []string{"none", "rs-fixed", "adaptive", "adaptive-sticky"}
	trials := make([]Trial[*outcome], 0, len(modes))
	for _, mode := range modes {
		trials = append(trials, Trial[*outcome]{
			Name: mode,
			Run:  func() (*outcome, error) { return run(mode) },
		})
	}
	res, err := Sweep(cfg, trials)
	if err != nil {
		return nil, err
	}

	t := &Table{
		Title:   fmt.Sprintf("E9 — adaptive FEC on a bursty (Gilbert–Elliott) link: %d × %d B stream", streamFlows, flowBytes),
		Columns: []string{"FEC regime", "total transfer time (ms)", "retransmits", "FEC switches"},
	}
	for i, mode := range modes {
		o := res[i]
		t.AddRow(mode, ms(o.totalFCT), fmt.Sprintf("%d", o.retx), fmt.Sprintf("%d", o.switches))
	}
	t.AddNote("channel: BER 1e-12 floor with 3e-5 bursts, 10%% bad dwell (200 µs bursts every ~2 ms)")
	t.AddNote("none bleeds retransmits in every burst; fixed RS pays its overhead on every clean byte;")
	t.AddNote("default adaptive flaps when the burst period beats its dwell (each switch costs downtime);")
	t.AddNote("sizing the de-escalation dwell above the burst period (adaptive-sticky) recovers fixed-RS performance")
	t.AddNote("while keeping the escalate-on-evidence behaviour a pristine link needs (E6)")
	return t, nil
}
