package experiment

import (
	"fmt"

	"rackfab/internal/host"
	"rackfab/internal/netstack"
	"rackfab/internal/phy"
	"rackfab/internal/sim"
	"rackfab/internal/switching"
	"rackfab/internal/topo"
	"rackfab/internal/workload"
)

// Fig1 regenerates Figure 1: "the latency due to propagation of packets in
// the media vs. the latency due to packet traversing a layer 2
// state-of-the-art cut through switch. We assume a switch every 2 meters."
//
// Two series over distance (one switch per 2 m hop): cumulative media
// flight time and cumulative switch traversal time. The third column runs
// the same path through the packet simulator to tie the analytic figure to
// the measured model. The paper's conclusion — "in the scale of a rack,
// the latency due to packet switching is dominant" — should show as a
// ratio far above 1 at every row.
func Fig1(cfg Config) (*Table, error) {
	maxHops := cfg.Scale.pick(8, 20)
	const (
		spacingM = 2.0
		pipeline = switching.DefaultPipelineLatency
	)
	media := phy.ProfileOf(phy.OpticalFiber)
	perHopMedia := media.Propagation(spacingM)

	trials := make([]Trial[sim.Duration], 0, maxHops)
	for hops := 1; hops <= maxHops; hops++ {
		trials = append(trials, Trial[sim.Duration]{
			Name: fmt.Sprintf("hops=%d", hops),
			Run:  func() (sim.Duration, error) { return fig1Measure(hops, spacingM) },
		})
	}
	measured, err := Sweep(cfg, trials)
	if err != nil {
		return nil, err
	}

	t := &Table{
		Title:   "Figure 1 — media propagation vs cut-through switching latency (switch every 2 m)",
		Columns: []string{"hops", "distance(m)", "media(ns)", "switching(ns)", "sim-measured(ns)", "switch/media"},
	}
	for hops := 1; hops <= maxHops; hops++ {
		mediaTotal := sim.Duration(int64(hops) * int64(perHopMedia))
		switchTotal := sim.Duration(int64(hops) * int64(pipeline))
		t.AddRow(
			fmt.Sprintf("%d", hops),
			fmt.Sprintf("%.0f", float64(hops)*spacingM),
			ns(mediaTotal),
			ns(switchTotal),
			ns(measured[hops-1]),
			fmt.Sprintf("%.0fx", float64(switchTotal)/float64(mediaTotal)),
		)
	}
	t.AddNote("media: optical fiber at %.1f ns/m; switch: %v cut-through pipeline per hop", float64(media.PropagationPerMeter)/1000, pipeline)
	t.AddNote("sim-measured: one 64 B probe end-to-end on a line fabric minus source NIC serialization;")
	t.AddNote("it carries a constant ≈460 ns tail (destination switch + host-port delivery) on top of the switching series")
	return t, nil
}

// Fig1Plot renders the Figure 1 series as an ASCII chart (log-scale y
// axis, the shape printed in the paper).
func Fig1Plot(t *Table) (*Plot, error) {
	p := &Plot{
		Title:  "Figure 1 — cumulative latency vs distance (switch every 2 m)",
		XLabel: "distance, m",
		YLabel: "latency, ns",
		LogY:   true,
		Series: []Series{
			{Name: "media propagation", Marker: 'm'},
			{Name: "cut-through switching", Marker: 'S'},
		},
	}
	for _, row := range t.Rows {
		var dist, media, sw float64
		if _, err := fmt.Sscanf(row[1], "%g", &dist); err != nil {
			return nil, fmt.Errorf("experiment: fig1 plot: %w", err)
		}
		if _, err := fmt.Sscanf(row[2], "%g", &media); err != nil {
			return nil, fmt.Errorf("experiment: fig1 plot: %w", err)
		}
		if _, err := fmt.Sscanf(row[3], "%g", &sw); err != nil {
			return nil, fmt.Errorf("experiment: fig1 plot: %w", err)
		}
		p.Series[0].Points = append(p.Series[0].Points, Point{X: dist, Y: media})
		p.Series[1].Points = append(p.Series[1].Points, Point{X: dist, Y: sw})
	}
	return p, nil
}

// fig1Measure runs one probe frame over a hops-link line fabric and
// returns its end-to-end latency minus the source NIC serialization, i.e.
// the fabric-attributable latency Figure 1 plots.
func fig1Measure(hops int, spacingM float64) (sim.Duration, error) {
	const probeBytes = 46 // the payload of a minimum-size frame
	g := topo.NewLine(hops+1, topo.Options{
		LanesPerLink: 4,
		Media:        phy.OpticalFiber,
		NodeSpacingM: spacingM,
	})
	f, _, err := buildFabric(g, 1, nil)
	if err != nil {
		return 0, err
	}
	if _, err := runFlows(f, []workload.FlowSpec{{Src: 0, Dst: hops, Bytes: probeBytes}}, sim.Time(sim.Second)); err != nil {
		return 0, err
	}
	nicSerial := sim.Transmission(netstack.WireBitsForPayload(probeBytes), host.DefaultConfig().NICRate)
	return sim.Duration(f.Stats().Latency.Max()) - nicSerial, nil
}
