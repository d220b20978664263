// Package fluid is the flow-level companion engine to the packet-level
// fabric: flows are fluid streams sharing link capacity max-min fairly,
// and events are only flow arrivals and completions.
//
// The paper's evaluation plan scales from a hardware-validated small
// simulation to "hundreds to thousands of connected nodes". Packet-level
// simulation at 1024 nodes is event-bound (every frame × every hop), so —
// exactly like the paper's own methodology — the large-scale sweep runs on
// this coarser engine after cross-validating it against the packet engine
// on small fabrics (experiment E8).
//
// The solver is incremental and deterministic. Flows and links live in flat
// slices keyed by stable integer IDs (flow IDs follow a canonical spec
// ordering; link IDs are topo Edge.Index), so no result ever depends on Go
// map iteration order or on the order specs were handed in. At each
// instant with arrivals or completions, only the connected component of
// the link–flow sharing graph around the affected paths is re-solved —
// max-min allocations decompose over such components. Every arrival due at
// one instant joins a single refill seeded by the union of their paths, as
// the fault events of one instant do, and so does every completion due at
// it. The progressive-filling pass inside a component retires every link
// tied at the round's bottleneck share in one flat scan of the component's
// live links (see refill). Completions pop from a heap keyed by (finish
// time, flowID), so the flows finishing at one instant pop as one batch in
// flow-ID order, byte-stably, at O(log F) per flow.
package fluid

import (
	"sort"

	"rackfab/internal/faults"
	"rackfab/internal/sim"
	"rackfab/internal/topo"
	"rackfab/internal/trace"
	"rackfab/internal/workload"
)

// Config parameterizes a fluid run.
type Config struct {
	// Graph is the topology; link capacities come from EffectiveRate,
	// snapshotted once at the start of the run as the nominal healthy
	// state. Only Faults events move capacities after that.
	Graph *topo.Graph
	// Faults is an optional fault timeline applied mid-run: link capacity
	// changes (down / up / degrade, node loss lowered to its incident
	// links) interleave with flow arrivals and completions, winning exact
	// time ties against both. Flows crossing a failed link re-route onto
	// the incrementally repaired table when a path survives and park at
	// rate 0 until a repair heals the partition otherwise. The run
	// restores the graph's administrative link state on exit, so the same
	// graph can host a fault-free run afterwards. NewSession hands it to
	// Session.ApplyFaults, which takes further schedules mid-run.
	Faults *faults.Schedule
	// Trace, when non-nil, receives the run's flight-recorder events
	// (arrivals, completions, refill outcomes, fault replay)
	// and windowed per-link utilization/flow-count series. Each arrival
	// and completion records its own event. The arrivals of one instant
	// share one refill, so they record one fill outcome and one set of
	// series points, after all their arrival events; the completions of
	// one instant likewise record one fill outcome, before all their
	// completion events. The recorder
	// must already have its link tracks initialized (trace.LinkNames over
	// Graph). Traces differ between warm and cold solver paths — fill
	// outcomes are recorded — even though flow results are bit-identical.
	Trace *trace.Recorder
	// coldStart disables the warm-start replay so every event re-solves its
	// component from zero. The two paths produce bit-identical allocations;
	// the switch exists so in-package tests can prove it (and measure the
	// cold cost). Deliberately unexported: callers never need it.
	coldStart bool
}

// SolverStats counts how refills were solved: WarmHits are fills the
// warm-start oracle replayed end to end, WarmFallbacks entered the replay
// but fell back to the scan loop (entry guard or mid-fill deviation), and
// ColdFills ran the scan loop outright (cold engine, or a post-bail dead
// oracle). Hits/(Hits+Fallbacks+ColdFills) is the warm hit rate the
// experiment summaries print.
type SolverStats struct {
	WarmHits      int64
	WarmFallbacks int64
	ColdFills     int64
}

// WarmHitPct returns the warm-start hit rate as a percentage of all fills
// (0 when no fills ran) — the one definition every summary column and
// telemetry reader shares.
func (s SolverStats) WarmHitPct() float64 {
	total := s.WarmHits + s.WarmFallbacks + s.ColdFills
	if total == 0 {
		return 0
	}
	return 100 * float64(s.WarmHits) / float64(total)
}

// FlowResult is one completed flow. FCT includes one
// switching.DefaultPipelineLatency per path hop: the switch traversal the
// packet engine simulates in full.
type FlowResult struct {
	Spec  workload.FlowSpec
	Start sim.Time
	FCT   sim.Duration
	Hops  int
}

// Result is a fluid run's record. Flows is in completion order, ties
// broken by canonical spec order, so two runs over the same spec multiset
// — in any input order — produce identical Results. Callers summarize the
// flows themselves (the experiments' flowStats).
type Result struct {
	Flows []FlowResult
	// Events counts arrival/completion events processed (capacity-change
	// events are tallied separately in Faults.CapacityEvents).
	Events int
	// Solver reports how the run's refills were solved. Warm and cold
	// engines produce bit-identical Flows but opposite Solver mixes, so
	// determinism fingerprints mask this field.
	Solver SolverStats
	// Faults summarizes applied churn; zero-valued on fault-free runs.
	Faults faults.Stats
}

// specLess is the canonical spec order: (At, Src, Dst, Bytes, Label).
func specLess(a, b workload.FlowSpec) bool {
	if a.At != b.At {
		return a.At < b.At
	}
	if a.Src != b.Src {
		return a.Src < b.Src
	}
	if a.Dst != b.Dst {
		return a.Dst < b.Dst
	}
	if a.Bytes != b.Bytes {
		return a.Bytes < b.Bytes
	}
	return a.Label < b.Label
}

// canonicalOrder returns the permutation canonicalize applies: order[i] is
// the canonical flow ID assigned to input spec i. Stable-sorting indexes by
// the spec key yields exactly the permutation a stable sort of the values
// performs, so the two stay interchangeable.
func canonicalOrder(specs []workload.FlowSpec) []int {
	idx := make([]int, len(specs))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return specLess(specs[idx[a]], specs[idx[b]]) })
	order := make([]int, len(specs))
	for id, in := range idx {
		order[in] = id
	}
	return order
}

// Run executes the fluid simulation over the given specs: a Session
// advanced in one shot until every flow has completed and every fault has
// applied (Faults counts events after the last completion too), with the
// graph's administrative link state restored on every exit path so a
// faulted run leaves the topology as it found it (warm/cold replays and
// baseline-vs-churn trials share graphs).
func Run(cfg Config, specs []workload.FlowSpec) (*Result, error) {
	s, err := NewSession(cfg, specs)
	if err != nil {
		return nil, err
	}
	defer s.RestoreGraph()
	if err := s.Advance(sim.Forever); err != nil {
		return nil, err
	}
	return s.finish(), nil
}
