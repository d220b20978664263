package rackfab

import (
	"io"

	"rackfab/internal/trace"
)

// Trace is a cluster's recorded flight data: typed sim-time events (flow
// arrivals/completions, queue enqueue/dequeue with depth, fault apply and
// repair, fluid refill outcomes, phase gates) plus windowed per-link
// utilization and queue-depth series. Obtain one from Cluster.Trace after
// running with Config.Trace set.
//
// All bounds are fixed: the ring keeps the latest 65536 events, and each
// link series keeps its latest 1024 windows of 1µs of simulated time, so
// memory stays bounded however long the run, with the oldest events and
// windows scrolling off. Every flow's events are recorded. The recorded
// bytes are deterministic (sim-time stamps, no wall clocks), so for a given
// Config and workload the exported trace is byte-identical across repeats
// and worker counts; experiment sweeps fold it into their determinism
// fingerprints.
type Trace struct {
	rec *trace.Recorder
}

// WriteText writes the stable text form. Its exact bytes are part of the
// run's determinism fingerprint: same Config + workload ⇒ same bytes.
func (t *Trace) WriteText(w io.Writer) error {
	if t == nil {
		return (*trace.Recorder)(nil).WriteText(w)
	}
	return t.rec.WriteText(w)
}

// WriteJSON writes Chrome trace-event JSON, loadable directly in Perfetto
// (https://ui.perfetto.dev) or chrome://tracing: flows as async spans, one
// track per link carrying its instants and utilization/depth counters.
func (t *Trace) WriteJSON(w io.Writer) error {
	if t == nil {
		return (*trace.Recorder)(nil).WriteJSON(w)
	}
	return t.rec.WriteJSON(w)
}

// Events returns how many events were recorded over the whole run,
// including any the bounded ring has since overwritten.
func (t *Trace) Events() int64 {
	if t == nil {
		return 0
	}
	return t.rec.Total()
}

// Overwritten returns how many recorded events scrolled off the ring.
func (t *Trace) Overwritten() int64 {
	if t == nil {
		return 0
	}
	return t.rec.Dropped()
}

// Trace returns the cluster's flight recorder, or nil when Config.Trace
// was false. The returned handle reads live recorder state: export after
// the run (or between Run calls — the engines are quiescent then).
func (c *Cluster) Trace() *Trace {
	if c.trace == nil {
		return nil
	}
	return &Trace{rec: c.trace}
}

// TraceSet collects the traces of a multi-trial experiment under trial
// names, for one combined export. Registration is safe from parallel
// sweep workers; export always walks trials in sorted-name order, so the
// written bytes depend only on each trial's deterministic trace, never on
// worker scheduling.
type TraceSet struct {
	set *trace.Set
}

// NewTraceSet returns an empty set. A trial cluster records into it when
// built with Config.Trace set, and a nil set means tracing is off.
func NewTraceSet() *TraceSet {
	return &TraceSet{set: trace.NewSet()}
}

// Add registers a finished trial's trace under name. Nil sets and nil
// traces are no-ops so call sites need no tracing-off guard; adding one
// name twice panics (a sweep wiring bug).
func (s *TraceSet) Add(name string, t *Trace) {
	if s == nil || t == nil {
		return
	}
	s.set.Add(name, t.rec)
}

// Len returns how many trials have registered traces.
func (s *TraceSet) Len() int {
	if s == nil {
		return 0
	}
	return s.set.Len()
}

// WriteText writes every trial's stable text form, sections in
// sorted-name order. Byte-deterministic like Trace.WriteText.
func (s *TraceSet) WriteText(w io.Writer) error {
	if s == nil {
		return nil
	}
	return s.set.WriteText(w)
}

// WriteJSON writes one Perfetto-loadable JSON document with each trial as
// its own process.
func (s *TraceSet) WriteJSON(w io.Writer) error {
	if s == nil {
		return nil
	}
	return s.set.WriteJSON(w)
}
