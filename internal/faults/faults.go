// Package faults is the deterministic fault-injection subsystem: it
// describes link and node churn — flaps, transceiver degradation, partial
// partitions, node loss — as plain, replayable schedules of timestamped
// events, and lowers them to the per-link capacity changes the engines
// consume.
//
// The paper's fabric is *adaptive*: the Closed Ring Control re-prices,
// re-routes, and reconfigures around link health. A frozen topology never
// exercises that loop, so this package supplies the thing the control
// plane exists for. Every schedule is a value: a sorted list of
// (At, Target, Kind) records with no hidden state, so the same schedule
// replayed over the same seed produces byte-identical runs — the property
// every determinism gate in this repo is built on. Randomized schedules
// come from seeded generators (PoissonFlaps) that are themselves pure
// functions of their RNG stream.
package faults

import (
	"fmt"
	"sort"
	"strings"

	"rackfab/internal/sim"
	"rackfab/internal/topo"
)

// Stats counts an engine's applied fault replay, the same way on both
// engines: capacity events applied (after node-loss lowering),
// routing-table destination columns whose distances a repair rewrote,
// active flows a fault instant moved onto a new path, and starvation
// episodes. An episode is an active flow pinned at rate zero by a dead
// link for a positive span of simulated time, counted when a later repair
// heals the partition; a flow cut and healed within one instant never
// waited, so it doesn't count. StarvedTime is the total
// flow-time spent starved, so StarvedTime/StarvedEpisodes is the mean
// service-recovery time after a failure: flows an immediate reroute saved
// never appear, flows that had to wait for the repair contribute their
// outage.
type Stats struct {
	CapacityEvents  int64
	RouteRepairs    int64
	Reroutes        int64
	StarvedEpisodes int64
	StarvedTime     sim.Duration
}

// Kind classifies one fault event.
type Kind uint8

const (
	// LinkDown fails the target edge: capacity drops to zero and routing
	// must steer around it.
	LinkDown Kind = iota
	// LinkUp restores the target edge to its nominal capacity.
	LinkUp
	// Degrade reduces the target edge to Frac of its nominal capacity
	// (0 < Frac < 1) without taking it out of the topology — the
	// transceiver-aging / lane-shedding regime.
	Degrade
	// NodeDown fails every edge incident to the target node — node loss
	// partitions the node's flows until NodeUp.
	NodeDown
	// NodeUp restores every edge incident to the target node.
	NodeUp
)

// String names the kind for schedule rendering.
func (k Kind) String() string {
	switch k {
	case LinkDown:
		return "link-down"
	case LinkUp:
		return "link-up"
	case Degrade:
		return "degrade"
	case NodeDown:
		return "node-down"
	case NodeUp:
		return "node-up"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Event is one scheduled fault: a plain (At, Target, Kind) record. Target
// is a topo Edge.Index for link events and a node ID for node events;
// Frac is the remaining capacity fraction for Degrade and ignored
// otherwise. Events are pure values — byte-stable, comparable, replayable.
type Event struct {
	At     sim.Time
	Target int
	Kind   Kind
	Frac   float64
}

// String renders the event in a fixed, byte-stable form.
func (e Event) String() string {
	if e.Kind == Degrade {
		return fmt.Sprintf("%v %v %d frac=%g", e.At, e.Kind, e.Target, e.Frac)
	}
	return fmt.Sprintf("%v %v %d", e.At, e.Kind, e.Target)
}

// Schedule is an ordered fault timeline. Construction sorts events by time
// with a stable sort, so same-instant events apply in the order the author
// listed them — an author who downs a link and loses a node at the same
// instant controls which mutation lands first.
type Schedule struct {
	events []Event
}

// New builds a schedule from events, copying and time-sorting them.
func New(events ...Event) *Schedule {
	s := &Schedule{events: append([]Event(nil), events...)}
	sort.SliceStable(s.events, func(i, j int) bool { return s.events[i].At < s.events[j].At })
	return s
}

// Merge returns a new schedule containing both timelines, re-sorted; ties
// keep s's events ahead of t's.
func (s *Schedule) Merge(t *Schedule) *Schedule {
	return New(append(append([]Event(nil), s.events...), t.events...)...)
}

// Events returns the sorted timeline. Callers must not mutate it.
func (s *Schedule) Events() []Event { return s.events }

// Len returns the number of events.
func (s *Schedule) Len() int {
	if s == nil {
		return 0
	}
	return len(s.events)
}

// String renders the whole timeline one event per line — the byte-stable
// form replay logs and goldens compare.
func (s *Schedule) String() string {
	var b strings.Builder
	for _, e := range s.events {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// Validate checks every event against a topology: link targets must be
// valid edge indexes, node targets valid node IDs, Degrade fractions
// strictly inside (0, 1), and no event may carry a negative time.
func (s *Schedule) Validate(g *topo.Graph) error {
	nodes, bound := g.NumNodes(), g.EdgeIndexBound()
	for _, e := range s.events {
		if e.At < 0 {
			return fmt.Errorf("faults: event %q before time zero", e)
		}
		switch e.Kind {
		case LinkDown, LinkUp, Degrade:
			if e.Target < 0 || e.Target >= bound {
				return fmt.Errorf("faults: event %q: edge index out of [0,%d)", e, bound)
			}
			if e.Kind == Degrade && (e.Frac <= 0 || e.Frac >= 1) {
				return fmt.Errorf("faults: event %q: degrade fraction outside (0,1)", e)
			}
		case NodeDown, NodeUp:
			if e.Target < 0 || e.Target >= nodes {
				return fmt.Errorf("faults: event %q: node out of [0,%d)", e, nodes)
			}
		default:
			return fmt.Errorf("faults: event %q: unknown kind", e)
		}
	}
	return nil
}

// LinkEvent is a schedule lowered to the engines' vocabulary: at instant
// At, the edge's capacity becomes Factor × its nominal capacity. Factor 0
// is link-down, 1 is fully restored, anything between is a degrade.
// Factors are absolute against nominal, not cumulative.
type LinkEvent struct {
	At     sim.Time
	Edge   int
	Factor float64
}

// Links validates the schedule against g and lowers it to per-edge
// capacity events: node events expand to one event per incident edge in
// ascending edge-index order, so the lowering — like everything else here —
// is a pure function of (schedule, topology). The lowering is stateless:
// NodeUp restores EVERY incident edge to full capacity, including one an
// independent LinkDown or Degrade had claimed — an author overlapping
// link faults with a node pulse on the same edge owns that interaction
// (keep them disjoint, or re-issue the link event after the NodeUp).
func (s *Schedule) Links(g *topo.Graph) ([]LinkEvent, error) {
	if s == nil || len(s.events) == 0 {
		return nil, nil
	}
	if err := s.Validate(g); err != nil {
		return nil, err
	}
	out := make([]LinkEvent, 0, len(s.events))
	for _, e := range s.events {
		switch e.Kind {
		case LinkDown:
			out = append(out, LinkEvent{At: e.At, Edge: e.Target, Factor: 0})
		case LinkUp:
			out = append(out, LinkEvent{At: e.At, Edge: e.Target, Factor: 1})
		case Degrade:
			out = append(out, LinkEvent{At: e.At, Edge: e.Target, Factor: e.Frac})
		case NodeDown, NodeUp:
			factor := 0.0
			if e.Kind == NodeUp {
				factor = 1.0
			}
			adj := g.Adjacent(topo.NodeID(e.Target))
			idxs := make([]int, 0, len(adj))
			for _, edge := range adj {
				idxs = append(idxs, edge.Index())
			}
			sort.Ints(idxs)
			for _, idx := range idxs {
				out = append(out, LinkEvent{At: e.At, Edge: idx, Factor: factor})
			}
		}
	}
	return out, nil
}
