// Package experiment regenerates the paper's figures and the quantitative
// claims of its prose, one entry point per experiment ID that `rackfab
// list` prints (README § Experiments). Every experiment returns a Table
// that renders to the terminal (and CSV), and is deterministic for a given
// seed.
package experiment

import (
	"fmt"

	"rackfab"
	"rackfab/internal/fabric"
	"rackfab/internal/host"
	"rackfab/internal/sim"
	"rackfab/internal/telemetry"
	"rackfab/internal/topo"
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

// buildFabric wires a fabric over g with optional config mutation.
func buildFabric(g *topo.Graph, seed int64, mutate ...func(*fabric.Config)) (*sim.Engine, *fabric.Fabric, error) {
	eng := sim.New()
	cfg := fabric.DefaultConfig(g)
	cfg.Seed = seed
	for _, m := range mutate {
		m(&cfg)
	}
	f, err := fabric.New(eng, cfg)
	if err != nil {
		return nil, nil, err
	}
	return eng, f, nil
}

// fctPercentiles returns the exact nearest-rank p50 and p99 of the
// completion times of flows, which must all have finished.
func fctPercentiles(flows []*host.Flow) (p50, p99 sim.Duration) {
	fcts := make([]sim.Duration, len(flows))
	for i, fl := range flows {
		fcts[i] = fl.FCT()
	}
	p50, p99, _ = telemetry.Percentiles(fcts)
	return p50, p99
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
