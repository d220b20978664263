// Package trace is the deterministic flight recorder: a bounded ring
// buffer of typed, sim-time-stamped events plus fixed-interval windowed
// series of per-link utilization and queue depth, fed by both the packet
// datapath and the fluid solver. Everything here is keyed to simulated
// time and deterministic inputs — no wall clocks, no RNG — so for a given
// seed the recorded bytes are part of the run's determinism fingerprint:
// byte-identical across repeats, worker counts, and host core counts.
//
// Bounded memory is a design rule, not an option: the ring overwrites its
// oldest events (tallying how many scrolled off) and the series keep a
// sliding set of recent windows, so tracing a full-scale or long-running
// run costs O(Capacity + links × SeriesWindows), never O(events). Every
// flow's events are recorded.
package trace

import (
	"fmt"

	"rackfab/internal/sim"
	"rackfab/internal/telemetry"
	"rackfab/internal/topo"
)

// Kind classifies one flight-recorder event.
type Kind uint8

const (
	// FlowArrive marks a flow's injection instant (Flow, Node=src,
	// Value=bytes).
	FlowArrive Kind = iota
	// FlowComplete marks final delivery (Flow, Node=dst, Value=latency ps).
	FlowComplete
	// Enqueue is a frame/train entering a queue (Flow, Link or Node,
	// Value=queue depth in frames after the push).
	Enqueue
	// Dequeue is a frame/train leaving a queue (Flow, Link or Node,
	// Value=queue depth in frames after the pop).
	Dequeue
	// FaultApply is a link capacity event taking effect (Link,
	// Value=capacity factor in per-mille; 0 = link down).
	FaultApply
	// FaultRepair is a routing-table repair pass after fault application
	// (Value=destination columns whose distances moved).
	FaultRepair
	// FillWarm is a fluid refill answered by the warm-start oracle
	// (Value=flows in the re-solved component).
	FillWarm
	// FillFallback is a warm refill that fell back to a cold solve
	// (Value=flows in the re-solved component).
	FillFallback
	// FillCold is a from-scratch fluid solve (Value=flows in the
	// re-solved component).
	FillCold
	// PhaseOpen is a phase barrier opening (Value=phase index).
	PhaseOpen
)

// String returns the fixed schema name of the kind.
func (k Kind) String() string {
	switch k {
	case FlowArrive:
		return "flow-arrive"
	case FlowComplete:
		return "flow-complete"
	case Enqueue:
		return "enqueue"
	case Dequeue:
		return "dequeue"
	case FaultApply:
		return "fault-apply"
	case FaultRepair:
		return "fault-repair"
	case FillWarm:
		return "fill-warm"
	case FillFallback:
		return "fill-fallback"
	case FillCold:
		return "fill-cold"
	case PhaseOpen:
		return "phase-open"
	}
	return "unknown"
}

// Event is one recorded instant. Fields not meaningful for a kind hold -1
// (Flow/Link/Node) or 0 (Value); see the Kind constants for each kind's
// schema.
type Event struct {
	At    sim.Time
	Kind  Kind
	Flow  int64 // canonical flow ID, -1 when not flow-scoped
	Link  int32 // link (edge) index, -1 when not link-scoped
	Node  int32 // node ID, -1 when not node-scoped
	Value int64 // kind-specific scalar
}

// The recorder's fixed sizes.
const (
	// Capacity bounds the event ring.
	Capacity = 65536
	// SeriesInterval is the window width of the per-link utilization and
	// queue-depth series.
	SeriesInterval = sim.Microsecond
	// SeriesWindows bounds the retained windows per series.
	SeriesWindows = 1024
)

// linkSeries is one link's windowed telemetry pair.
type linkSeries struct {
	name  string
	util  *telemetry.Series // serialization occupancy, ps per window
	depth *telemetry.Series // queue depth in frames (flows for fluid)
}

// Recorder is the flight recorder proper. All methods are nil-safe no-ops
// on a nil *Recorder, so engine hot paths guard with a single pointer test
// and tracing-off costs nothing. A Recorder belongs to one cluster/session
// world and is single-threaded like the engine that feeds it.
type Recorder struct {
	events []Event
	next   int   // ring write cursor
	total  int64 // events ever recorded (≥ len(events))
	links  []linkSeries
	// utilSummed selects how a utilization window reduces to one number:
	// true for the packet engine (samples are per-transmission busy
	// fractions; window utilization = Sum), false for the fluid engine
	// (samples are instantaneous allocated-share fractions; window
	// utilization = Last).
	utilSummed bool
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{events: make([]Event, 0, Capacity)}
}

// InitLinks declares the link track set: one utilization and one depth
// series per name, indexed by the caller's link index (topo Edge.Index on
// both engines). utilSummed declares the utilization sample convention —
// see the Recorder field. Call once, before any Observe.
func (r *Recorder) InitLinks(names []string, utilSummed bool) {
	if r == nil {
		return
	}
	r.utilSummed = utilSummed
	r.links = make([]linkSeries, 0, len(names))
	for _, name := range names {
		r.addTrack(name)
	}
}

// AddLink opens the track of an edge added after InitLinks (an express
// channel the fabric builds at runtime), named as LinkNames names the
// others. The track stays after the edge is removed.
func (r *Recorder) AddLink(e *topo.Edge) {
	if r == nil {
		return
	}
	for len(r.links) <= e.Index() {
		r.addTrack("")
	}
	r.links[e.Index()].name = trackName(e)
}

func (r *Recorder) addTrack(name string) {
	r.links = append(r.links, linkSeries{
		name:  name,
		util:  telemetry.NewSeries(int64(SeriesInterval), SeriesWindows),
		depth: telemetry.NewSeries(int64(SeriesInterval), SeriesWindows),
	})
}

// LinkNames derives the canonical link track names for a graph, indexed by
// Edge.Index (gaps — e.g. removed express channels — stay empty).
func LinkNames(g *topo.Graph) []string {
	names := make([]string, g.EdgeIndexBound())
	for _, e := range g.Edges() {
		names[e.Index()] = trackName(e)
	}
	return names
}

// trackName is an edge's track name, stable across engines:
// "L<index>:<A>-<B>".
func trackName(e *topo.Edge) string { return fmt.Sprintf("L%d:%d-%d", e.Index(), e.A, e.B) }

// Record appends ev to the ring, overwriting the oldest event when full.
func (r *Recorder) Record(ev Event) {
	if r == nil {
		return
	}
	r.total++
	if len(r.events) < cap(r.events) {
		r.events = append(r.events, ev)
		return
	}
	r.events[r.next] = ev
	r.next++
	if r.next == len(r.events) {
		r.next = 0
	}
}

// ObserveBusy folds a transmitter-busy observation — busyPs picoseconds of
// serialization starting at simulated instant at — into link li's
// utilization series as a fraction of the window width, so a window's Sum
// is its busy fraction (packet-engine convention; pair with
// InitLinks(…, true)).
func (r *Recorder) ObserveBusy(li int32, at sim.Time, busyPs float64) {
	if r == nil || int(li) >= len(r.links) {
		return
	}
	r.links[li].util.Observe(int64(at), busyPs/float64(SeriesInterval))
}

// ObserveUtil folds an instantaneous utilization fraction (0..1) into link
// li's utilization series (fluid-engine convention; a window's Last is its
// utilization; pair with InitLinks(…, false)).
func (r *Recorder) ObserveUtil(li int32, at sim.Time, frac float64) {
	if r == nil || int(li) >= len(r.links) {
		return
	}
	r.links[li].util.Observe(int64(at), frac)
}

// ObserveDepth folds a queue-depth observation into link li's depth
// series.
func (r *Recorder) ObserveDepth(li int32, at sim.Time, depth float64) {
	if r == nil || int(li) >= len(r.links) {
		return
	}
	r.links[li].depth.Observe(int64(at), depth)
}

// Events returns the retained events oldest-first. The returned slice is
// freshly ordered but shares no further bookkeeping; it is cheap relative
// to export.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	out := make([]Event, 0, len(r.events))
	out = append(out, r.events[r.next:]...)
	out = append(out, r.events[:r.next]...)
	return out
}

// Total returns how many events were ever recorded (including any that
// scrolled off the ring).
func (r *Recorder) Total() int64 {
	if r == nil {
		return 0
	}
	return r.total
}

// Dropped returns how many recorded events the ring has overwritten.
func (r *Recorder) Dropped() int64 {
	if r == nil {
		return 0
	}
	return r.total - int64(len(r.events))
}
