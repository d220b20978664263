package experiment

import (
	"fmt"

	"rackfab/internal/poc"
)

// E7 reproduces the paper's validation methodology: "we begin with a small
// scale simulation verified by a hardware proof of concept (POC)" on the
// NetFPGA SUME. The table compares the packet simulator against the
// SUME-class hardware model across chain lengths; the error columns are
// the bar the large-scale results must clear.
func E7(cfg Config) (*Table, error) {
	frames := cfg.Scale.pick(200, 2000)
	hopCounts := []int{1, 2, 3}

	trials := make([]Trial[*poc.Report], 0, len(hopCounts))
	for _, hops := range hopCounts {
		trials = append(trials, Trial[*poc.Report]{
			Name: fmt.Sprintf("hops=%d", hops),
			Run: func() (*poc.Report, error) {
				return poc.Validate(hops, frames, 1500, int64(42+hops))
			},
		})
	}
	reps, err := Sweep(cfg, trials)
	if err != nil {
		return nil, err
	}

	t := &Table{
		Title:   "E7 — small-scale simulation vs NetFPGA-SUME-class hardware PoC",
		Columns: []string{"hops", "sim mean (us)", "PoC mean (us)", "mean err", "sim p99 (us)", "PoC p99 (us)", "p99 err"},
	}
	for i, hops := range hopCounts {
		rep := reps[i]
		t.AddRow(
			fmt.Sprintf("%d", hops),
			us(rep.SimMean), us(rep.HWMean), fmt.Sprintf("%.2f%%", rep.MeanErrPct),
			us(rep.SimP99), us(rep.HWP99), fmt.Sprintf("%.2f%%", rep.P99ErrPct),
		)
	}
	t.AddNote("PoC model: 4-port 10G store-and-forward device, %v ± %v pipeline per hop", poc.PipelineMean, poc.PipelineJitter)
	t.AddNote("pass bar: mean error within a few percent before trusting the large-scale sweep (E8)")
	return t, nil
}
