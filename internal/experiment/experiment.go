// Package experiment regenerates the paper's figures and the quantitative
// claims of its prose, one entry point per experiment ID that `rackfab
// list` prints (README § Experiments). Every experiment returns a Table
// that renders to the terminal (and CSV), and is deterministic for a given
// seed.
package experiment

import (
	"errors"
	"fmt"

	"rackfab"
	"rackfab/internal/fabric"
	"rackfab/internal/fluid"
	"rackfab/internal/host"
	"rackfab/internal/ringctl"
	"rackfab/internal/sim"
	"rackfab/internal/telemetry"
	"rackfab/internal/topo"
	"rackfab/internal/workload"
)

// Scale selects experiment sizing: Quick for benchmarks and CI, Full for
// the paper-scale runs (`rackfab -scale full`).
type Scale int

// Scales.
const (
	Quick Scale = iota
	Full
)

// pick returns q under Quick and f under Full.
func (s Scale) pick(q, f int) int {
	if s == Quick {
		return q
	}
	return f
}

// Config carries the cross-cutting run options into every experiment.
type Config struct {
	// Scale sizes the experiment (Quick or Full).
	Scale Scale
	// Parallel bounds how many independent trials run concurrently.
	// Zero or negative means one worker per CPU; 1 forces the plain
	// sequential loop. Results are byte-identical at any setting —
	// every trial owns its own engine, fabric, and RNG streams.
	Parallel int
	// Trace, when non-nil, collects flight-recorder traces from
	// experiments that drive the public Cluster façade (e12): each such
	// trial builds its cluster with the set's sizing and registers its
	// trace under the trial name. Registration is worker-safe and export
	// order is sorted by name, so the exported bytes stay byte-identical
	// at any Parallel setting. Experiments over the internal fabric API
	// leave the set empty.
	Trace *rackfab.TraceSet
}

// Workers resolves Parallel to an effective worker count.
func (c Config) Workers() int {
	if c.Parallel <= 0 {
		return defaultWorkers()
	}
	return c.Parallel
}

// Sequential returns a Config for s that runs trials one at a time.
func Sequential(s Scale) Config { return Config{Scale: s, Parallel: 1} }

// buildFabric assembles a packet fabric over g through fabric.Assemble,
// with the trial's seed and optional config mutations, and starts a CRC
// over it when ctl is non-nil.
func buildFabric(g *topo.Graph, seed int64, ctl *ringctl.Config, mutate ...func(*fabric.Config)) (*fabric.Fabric, *ringctl.Controller, error) {
	cfg := fabric.DefaultConfig(g)
	cfg.Seed = seed
	for _, m := range mutate {
		m(&cfg)
	}
	return fabric.Assemble(cfg, ctl)
}

// runFlows injects specs into f and runs until every injected flow
// finishes or, given measured indexes into specs, until those flows do. It
// errors when a flow it waits for is unfinished at limit.
func runFlows(f *fabric.Fabric, specs []workload.FlowSpec, limit sim.Time, measured ...int) ([]*host.Flow, error) {
	flows, err := f.InjectFlows(specs)
	if err != nil {
		return nil, err
	}
	wait := make([]*host.Flow, len(measured))
	for i, m := range measured {
		wait[i] = flows[m]
	}
	return flows, f.RunUntilDone(limit, wait...)
}

// ErrNoCompletedFlows reports a fluid/packet run that finished with zero
// completed flows — a mean FCT over such a run is 0/0, and the NaN it used
// to produce would silently poison the table.
var ErrNoCompletedFlows = errors.New("experiment: run completed no flows")

// flowStats is the one summary of a finished flow set that the rungs of
// both engines print: the mean and the exact nearest-rank p50 and p99 of
// the completion times, and the job completion time from the earliest
// start to the latest finish (the barrier a reducer waits for).
type flowStats struct {
	mean, p50, p99, jct sim.Duration
}

// summarize reduces finished flows, given as parallel start instants and
// completion times, to their flowStats; it sorts fcts in place. An empty
// set, whose mean is 0/0, fails with ErrNoCompletedFlows.
func summarize(starts []sim.Time, fcts []sim.Duration) (flowStats, error) {
	if len(fcts) == 0 {
		return flowStats{}, ErrNoCompletedFlows
	}
	var sum float64
	first, last := starts[0], starts[0]
	for i, fct := range fcts {
		sum += float64(fct)
		first = min(first, starts[i])
		last = max(last, starts[i].Add(fct))
	}
	st := flowStats{mean: sim.Duration(sum / float64(len(fcts))), jct: last.Sub(first)}
	st.p50, st.p99, _ = telemetry.Percentiles(fcts)
	return st, nil
}

// hostStats summarizes packet flows, which must all have finished.
func hostStats(flows []*host.Flow) (flowStats, error) {
	starts := make([]sim.Time, len(flows))
	fcts := make([]sim.Duration, len(flows))
	for i, fl := range flows {
		starts[i], fcts[i] = fl.Started(), fl.FCT()
	}
	return summarize(starts, fcts)
}

// fluidStats summarizes the completed flows of a fluid run.
func fluidStats(res *fluid.Result) (flowStats, error) {
	starts := make([]sim.Time, len(res.Flows))
	fcts := make([]sim.Duration, len(res.Flows))
	for i, fr := range res.Flows {
		starts[i], fcts[i] = fr.Start, fr.FCT
	}
	return summarize(starts, fcts)
}

// ns formats a duration as nanoseconds with sensible precision.
func ns(d sim.Duration) string {
	return fmt.Sprintf("%.1f", d.Nanoseconds())
}

// us formats a duration as microseconds.
func us(d sim.Duration) string {
	return fmt.Sprintf("%.2f", d.Microseconds())
}

// ms formats a duration as milliseconds.
func ms(d sim.Duration) string {
	return fmt.Sprintf("%.3f", d.Seconds()*1e3)
}

// pct formats a ratio as a signed percentage.
func pct(new, old float64) string {
	if old == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%+.1f%%", (new-old)/old*100)
}
