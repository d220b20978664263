package rackfab

import (
	"fmt"
	"strings"
	"time"

	"rackfab/internal/faults"
	"rackfab/internal/sim"
	"rackfab/internal/topo"
)

// This file is the public fault surface: replayable link/node churn
// timelines consumed by BOTH engines. The fluid engine takes a schedule
// natively (capacity changes interleave with its flow events, reroutes ride
// the incrementally repaired routing table); the packet engine replays the
// same schedule as simulation events that administratively toggle the edge
// and batch-repair the live table — and, with the Closed Ring Control
// enabled, the CRC's own epoch loop re-prices the changed fabric and logs
// each replayed fault on its decision trail. User code never imports
// internal packages to drive either.

// FaultKind classifies one scheduled fault.
type FaultKind int

// Fault kinds. Link kinds target the link joining nodes A and B; node
// kinds target Node and lower to every incident link at apply time.
const (
	// LinkDown fails the link: zero capacity, routing steers around it.
	LinkDown FaultKind = iota
	// LinkUp restores the link to nominal capacity.
	LinkUp
	// LinkDegrade reduces the link to Frac of nominal (0 < Frac < 1)
	// without removing it — transceiver aging, lane shedding. The packet
	// engine applies the nearest whole-lane fraction.
	LinkDegrade
	// NodeDown fails every link incident to the node.
	NodeDown
	// NodeUp restores every link incident to the node.
	NodeUp
)

// String names the kind in the schedule's byte-stable rendering.
func (k FaultKind) String() string {
	switch k {
	case LinkDown:
		return "link-down"
	case LinkUp:
		return "link-up"
	case LinkDegrade:
		return "degrade"
	case NodeDown:
		return "node-down"
	case NodeUp:
		return "node-up"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// FaultSpec is one scheduled fault: a plain (At, target, Kind) record.
// Link kinds name the link by its endpoints A and B; node kinds name Node.
// Frac is the remaining capacity fraction for LinkDegrade and ignored
// otherwise. Specs are pure values — byte-stable, comparable, replayable.
type FaultSpec struct {
	At   time.Duration
	Kind FaultKind
	A, B int
	Node int
	Frac float64
}

// String renders the spec in a fixed, byte-stable form.
func (s FaultSpec) String() string {
	switch s.Kind {
	case NodeDown, NodeUp:
		return fmt.Sprintf("%v %v node %d", s.At, s.Kind, s.Node)
	case LinkDegrade:
		return fmt.Sprintf("%v %v link %d-%d frac=%g", s.At, s.Kind, s.A, s.B, s.Frac)
	default:
		return fmt.Sprintf("%v %v link %d-%d", s.At, s.Kind, s.A, s.B)
	}
}

// FaultSchedule is an ordered fault timeline. Construction sorts specs by
// time with a stable sort, so same-instant events apply in the order the
// author listed them.
type FaultSchedule struct {
	specs []FaultSpec
}

// NewFaultSchedule builds a schedule from specs, copying and time-sorting
// them. Validation against a concrete topology happens when the schedule is
// applied (Config.Faults or Cluster.ApplyFaults).
func NewFaultSchedule(specs ...FaultSpec) *FaultSchedule {
	s := &FaultSchedule{specs: append([]FaultSpec(nil), specs...)}
	stableSortFaults(s.specs)
	return s
}

func stableSortFaults(specs []FaultSpec) {
	// Insertion sort: stable, and schedules are small (tens of events).
	for i := 1; i < len(specs); i++ {
		for j := i; j > 0 && specs[j].At < specs[j-1].At; j-- {
			specs[j], specs[j-1] = specs[j-1], specs[j]
		}
	}
}

// Merge returns a new schedule containing both timelines, re-sorted; ties
// keep s's events ahead of t's.
func (s *FaultSchedule) Merge(t *FaultSchedule) *FaultSchedule {
	return NewFaultSchedule(append(append([]FaultSpec(nil), s.specs...), t.specs...)...)
}

// Events returns the sorted timeline. Callers must not mutate it.
func (s *FaultSchedule) Events() []FaultSpec { return s.specs }

// Len returns the number of events.
func (s *FaultSchedule) Len() int {
	if s == nil {
		return 0
	}
	return len(s.specs)
}

// String renders the whole timeline one event per line — the byte-stable
// form replay logs compare.
func (s *FaultSchedule) String() string {
	var b strings.Builder
	for _, e := range s.specs {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// lower resolves the public schedule against a topology: link endpoints
// become stable edge indexes, node targets are range-checked, and the
// result is the internal replayable form both engines consume.
func (s *FaultSchedule) lower(g *topo.Graph) (*faults.Schedule, error) {
	if s == nil || len(s.specs) == 0 {
		return faults.New(), nil
	}
	events := make([]faults.Event, 0, len(s.specs))
	for _, spec := range s.specs {
		ev := faults.Event{At: sim.Time(simDur(spec.At)), Frac: spec.Frac}
		switch spec.Kind {
		case LinkDown, LinkUp, LinkDegrade:
			e, ok := g.EdgeBetween(topo.NodeID(spec.A), topo.NodeID(spec.B))
			if !ok {
				return nil, fmt.Errorf("rackfab: fault %q: no link between %d and %d", spec, spec.A, spec.B)
			}
			ev.Target = e.Index()
			switch spec.Kind {
			case LinkDown:
				ev.Kind = faults.LinkDown
			case LinkUp:
				ev.Kind = faults.LinkUp
			default:
				ev.Kind = faults.Degrade
			}
		case NodeDown, NodeUp:
			ev.Target = spec.Node
			ev.Kind = faults.NodeDown
			if spec.Kind == NodeUp {
				ev.Kind = faults.NodeUp
			}
		default:
			return nil, fmt.Errorf("rackfab: fault %q: unknown kind", spec)
		}
		events = append(events, ev)
	}
	sched := faults.New(events...)
	if err := sched.Validate(g); err != nil {
		return nil, fmt.Errorf("rackfab: %w", err)
	}
	return sched, nil
}

// ApplyFaults registers a fault timeline with the cluster — the same
// surface Config.Faults feeds, available after construction so schedules
// derived from the built cluster (PoissonFlaps) can be applied. Both
// engines accept schedules at any time, before the first Run call or
// mid-run: events already in the past apply at the current instant, and
// same-instant events apply after those registered earlier. A service
// checkpoint records the schedules applied while the clock reads zero;
// one applied later makes Service.Checkpoint refuse.
func (c *Cluster) ApplyFaults(s *FaultSchedule) error {
	if c.be.Now() != 0 {
		c.offScript("ApplyFaults after the clock moved")
	}
	sched, err := s.lower(c.graph)
	if err != nil {
		return err
	}
	return c.applyFaults(sched)
}

// applyFaults hands a lowered schedule to the engine and, while the clock
// reads zero, logs it for Service.Checkpoint.
func (c *Cluster) applyFaults(sched *faults.Schedule) error {
	if err := c.be.applyFaults(sched); err != nil {
		return err
	}
	if c.be.Now() == 0 {
		c.zeroFaults = append(c.zeroFaults, sched)
	}
	return nil
}

// FlapConfig parameterizes the Poisson link-flap generator.
type FlapConfig struct {
	// Flaps is the number of down/up pulses to generate.
	Flaps int
	// Seed drives the draw; 0 derives a stream from the cluster seed.
	Seed int64
	// Start is the earliest instant the first flap may land.
	Start time.Duration
	// MeanGap is the exponential mean between successive flap onsets.
	MeanGap time.Duration
	// MeanOutage is the exponential mean outage duration.
	MeanOutage time.Duration
}

// PoissonFlaps generates a replayable schedule of link flaps over the
// cluster's topology: onsets arrive as a Poisson process, each downs a
// uniformly random link for an exponential outage, and every LinkDown is
// matched by exactly one later LinkUp (pulses never overlap on one link).
// The result is a pure function of (seed, topology, config) — the same
// inputs reproduce the same schedule byte-for-byte on any engine.
func PoissonFlaps(c *Cluster, cfg FlapConfig) *FaultSchedule {
	rng := sim.NewRNG(cfg.Seed)
	if cfg.Seed == 0 {
		rng = sim.NewRNG(c.cfg.Seed).Split("faults/poisson")
	}
	sched := faults.PoissonFlaps(rng, c.graph, faults.FlapConfig{
		Flaps:      cfg.Flaps,
		Start:      sim.Time(simDur(cfg.Start)),
		MeanGap:    simDur(cfg.MeanGap),
		MeanOutage: simDur(cfg.MeanOutage),
	})
	specs := make([]FaultSpec, 0, sched.Len())
	for _, ev := range sched.Events() {
		e, _ := c.graph.Edge(ev.Target) // drawn from the live edges
		kind := LinkDown
		if ev.Kind == faults.LinkUp {
			kind = LinkUp
		}
		specs = append(specs, FaultSpec{
			At:   fromSim(sim.Duration(ev.At)),
			Kind: kind,
			A:    int(e.A), B: int(e.B),
		})
	}
	return NewFaultSchedule(specs...)
}
