package fluid

import (
	"cmp"
	"fmt"
	"slices"

	"rackfab/internal/faults"
	"rackfab/internal/heapx"
	"rackfab/internal/route"
	"rackfab/internal/sim"
	"rackfab/internal/topo"
	"rackfab/internal/trace"
	"rackfab/internal/workload"
)

// Session is a resumable fluid run: the same event loop Run executes in one
// shot, exposed as an advance-to-instant stepper so callers with an
// interactive surface (the public Cluster façade's RunFor/RunUntilDone) can
// interleave simulated time with inspection. A Session advanced to
// completion in any sequence of Advance calls produces state byte-identical
// to a single Run over the same inputs — the loop body is shared, only the
// stopping condition differs (TestSessionMatchesRun holds the two shapes
// equal, faulted and fault-free). Flows enter only through Inject —
// NewSession's specs are simply the first batch — so every flow is routed
// by one function and waits in one arrival queue; barrier-synchronized
// phases are the caller's loop of Inject and AdvanceUntilDone.
type Session struct {
	cfg Config
	en  *engine
	res *Result

	// order maps input spec positions to canonical flow IDs: order[i] is
	// the flow ID of the i-th spec handed to NewSession, the handle a
	// caller uses with FlowStatus.
	order []int

	// linkEvents[faulted:] is the pending fault replay, sorted by instant;
	// ApplyFaults merges into it and drops the applied prefix.
	linkEvents []faults.LinkEvent
	now        sim.Time
	faulted    int

	// arrivalQ schedules pending arrivals as an (At, flow ID) min-heap, so
	// a mid-run Inject can append batches whose instants interleave with
	// flows already waiting. Within one batch the pop order is plain ID
	// order: canonical IDs are At-major, so (At, fid) ascending ≡ fid
	// ascending.
	arrivalQ heapx.Heap[arrivalEntry]
	batch    []int32 // scratch: the arrivals, or completions, due at the current instant

	// Inject's scratch: canon[id] is the input position of canonical ID id
	// in the batch being injected, and sorted holds that batch in canonical
	// order. The engine copies each spec it keeps.
	canon  []int
	sorted []workload.FlowSpec

	// taken is the completion-record buffer the last TakeCompleted handed
	// out; the next one hands it back to res.Flows.
	taken []FlowResult

	// idBase is the count of flows retired (prefix-compacted) so far:
	// public flow ID = internal engine index + idBase. Handles returned
	// before a Retire stay valid forever; the internal rebase is a uniform
	// shift, invariant for every ordering the solver depends on.
	idBase int

	// status caches each flow's completion record by flow ID — Result
	// keeps completion order, this keeps handle order.
	status []FlowStatus

	// completed and hops count every flow the session completed and sum
	// their path hops; TakeCompleted and Retire leave them alone.
	completed, hops int64

	// Administrative link-state snapshot for RestoreGraph, taken by the
	// first ApplyFaults that carries an event (Run's restore-on-exit
	// contract).
	savedEdges   []*topo.Edge
	savedEnabled []bool
}

// FlowStatus is one flow's progress snapshot. Start is live for active
// flows; FCT is valid once Done.
type FlowStatus struct {
	Done  bool
	Start sim.Time
	FCT   sim.Duration
}

// arrivalEntry is one pending arrival: ordered by instant, then flow ID — a
// total order, so tied arrivals resolve in canonical ID order.
type arrivalEntry struct {
	at  sim.Time
	fid int32
}

// Before implements heapx.Ordered.
func (e arrivalEntry) Before(other arrivalEntry) bool {
	if e.at != other.at {
		return e.at < other.at
	}
	return e.fid < other.fid
}

// NewSession validates the configuration and builds an empty session,
// hands cfg.Faults to ApplyFaults, then injects specs as its first batch
// (canonical IDs 0..len(specs)−1, see Order), without running anything:
// the clock sits at zero until the first Advance.
func NewSession(cfg Config, specs []workload.FlowSpec) (*Session, error) {
	if cfg.Graph == nil {
		return nil, fmt.Errorf("fluid: config needs a graph")
	}
	en := newEngine(cfg.Graph)
	en.cold = cfg.coldStart
	en.trace = cfg.Trace
	s := &Session{cfg: cfg, en: en, res: &Result{Flows: make([]FlowResult, 0, len(specs))}}
	if err := s.ApplyFaults(cfg.Faults); err != nil {
		return nil, err
	}
	var err error
	if s.order, err = s.Inject(specs); err != nil {
		return nil, err
	}
	return s, nil
}

// ApplyFaults validates sched against the session's graph, lowers it to
// per-link capacity events and merges them into the pending replay — the
// one way faults enter a session, before the first Advance or mid-run. The
// merge is stable: an event goes after those already due at its instant,
// so schedules applied one by one replay exactly what their
// faults.Schedule.Merge would. An event before the clock applies at the
// current instant. The first call that carries an event snapshots the
// graph's administrative link state for RestoreGraph.
func (s *Session) ApplyFaults(sched *faults.Schedule) error {
	evs, err := sched.Links(s.cfg.Graph)
	if err != nil {
		return fmt.Errorf("fluid: faults: %w", err)
	}
	if len(evs) == 0 {
		return nil
	}
	if s.savedEnabled == nil {
		s.savedEdges = s.cfg.Graph.Edges()
		s.savedEnabled = make([]bool, len(s.savedEdges))
		for i, e := range s.savedEdges {
			s.savedEnabled[i] = e.Enabled()
		}
	}
	s.linkEvents = append(slices.Clip(s.linkEvents[s.faulted:]), evs...)
	s.faulted = 0
	slices.SortStableFunc(s.linkEvents, func(a, b faults.LinkEvent) int { return cmp.Compare(a.At, b.At) })
	return nil
}

// Order returns, for each input spec position, the canonical flow ID the
// session assigned it — the handle FlowStatus takes. The mapping is a pure
// function of the spec multiset (see canonicalize), independent of input
// order.
func (s *Session) Order() []int { return s.order }

// Now returns the session clock.
func (s *Session) Now() sim.Time { return s.now }

// pending returns the number of flows that have not yet arrived.
func (s *Session) pending() int { return s.arrivalQ.Len() }

// Done reports whether every flow has arrived and completed.
func (s *Session) Done() bool {
	return s.pending() == 0 && s.en.activeCount == 0
}

// Remaining returns the number of flows not yet completed (active or not
// yet arrived).
func (s *Session) Remaining() int {
	return s.en.activeCount + s.pending()
}

// RetainedFlows returns the number of per-flow state records currently held
// (pending + active + completed-but-unretired) — the quantity the service
// soak gate asserts stays flat as total flows served grows.
func (s *Session) RetainedFlows() int { return len(s.en.flows) }

// Retired returns the cumulative number of flows dropped by Retire.
func (s *Session) Retired() int { return s.idBase }

// publicID maps an internal engine index to the stable public flow ID.
func (s *Session) publicID(fid int32) int64 { return int64(int(fid) + s.idBase) }

// FlowStatus returns flow id's progress. IDs come from Order (and from
// Inject for later batches). A retired ID reports Done with zeroed detail:
// its completion record was already drained through TakeCompleted.
func (s *Session) FlowStatus(id int) FlowStatus {
	fid := id - s.idBase
	if fid < 0 {
		return FlowStatus{Done: true}
	}
	st := s.status[fid]
	if !st.Done {
		st.Start = s.en.flows[fid].start
	}
	return st
}

// Advance runs the event loop until the next event lies strictly after
// `until` (events at exactly `until` are processed), every flow completes
// and every fault has applied, or an error state is reached. A fault due
// while the session holds no flow applies at its own instant, as on the
// packet engine. The error conditions — starvation behind an unhealed
// partition, or a stall — are exactly Run's: the session cannot progress
// past them unless an ApplyFaults heals the partition. If the run
// completes before `until`, the clock idles forward to `until` — RunFor
// semantics.
func (s *Session) Advance(until sim.Time) error {
	return s.advance(until, true)
}

// AdvanceUntilDone is Advance without the idle-forward: when every flow
// completes before `until`, the clock stops at the last event and later
// faults stay pending — the packet engine's RunUntilDone semantics, which
// the façade keeps interchangeable across engines. A run that does NOT
// finish by `until` still leaves the clock at `until`, exactly where the
// packet engine's limit stops it.
func (s *Session) AdvanceUntilDone(until sim.Time) error {
	return s.advance(until, false)
}

// advance is the event loop of Advance and AdvanceUntilDone. An instant's
// events go in batches by kind — its fault group, then its arrivals, then
// its completions — and each batch shares one refill; a fault group moves
// every stranded flow before its refill. A flow whose projected
// finish is the instant completes at it. A survivor that the refill
// re-projects onto the same instant completes in a further batch at that
// instant. Max-min within a component is unique, and no simulated time
// passes within an instant, so every survivor's rate and remaining bits
// equal what the last fill of a chain of one-flow completions gives. Only
// a flow that such a chain would re-project off the instant by a rounding
// unit completes at the instant instead.
func (s *Session) advance(until sim.Time, idleForward bool) error {
	en := s.en
	for s.pending() > 0 || en.activeCount > 0 || (idleForward && s.faulted < len(s.linkEvents)) {
		nextDone, _ := en.nextDone()
		nextArrival := sim.Forever
		if s.arrivalQ.Len() > 0 {
			nextArrival = max(s.arrivalQ.Min().at, s.now)
		}
		nextFault := sim.Forever
		if s.faulted < len(s.linkEvents) {
			nextFault = max(s.linkEvents[s.faulted].At, s.now)
		}
		next := nextDone
		if nextArrival < next {
			next = nextArrival
		}
		if nextFault < next {
			next = nextFault
		}
		if next == sim.Forever {
			if en.starvedNow > 0 {
				return fmt.Errorf("fluid: %d flows starved behind an unhealed partition at %v (no repair scheduled)", en.starvedNow, s.now)
			}
			return fmt.Errorf("fluid: stalled at %v with %d active flows and no progress", s.now, en.activeCount)
		}
		if next > until {
			if until > s.now {
				s.now = until
			}
			return nil
		}
		s.now = next

		// Faults win exact ties against both flow event kinds — capacity is
		// infrastructure, so a same-instant arrival already sees the new
		// topology. Arrivals win ties against completions, as in the
		// original engine. Every fault event sharing the instant applies as
		// one group: a node loss lowers to per-link events at the same At,
		// and the engine commits them through a single table RepairBatch
		// and refill rather than chasing intermediate topologies. The
		// arrivals and the completions due at the instant are batches too;
		// each flow still counts and traces as its own event — an arrival
		// in queue order, a completion in flow-ID order after the batch's
		// fill outcome.
		switch {
		case next == nextFault && s.faulted < len(s.linkEvents):
			j := s.faulted + 1
			for j < len(s.linkEvents) && s.linkEvents[j].At == s.linkEvents[s.faulted].At {
				j++
			}
			en.applyLinkEventGroup(s.now, s.linkEvents[s.faulted:j])
			s.faulted = j
		case next == nextArrival && s.arrivalQ.Len() > 0:
			s.batch = s.batch[:0]
			for s.arrivalQ.Len() > 0 && s.arrivalQ.Min().at <= s.now {
				fid := s.arrivalQ.Pop().fid
				s.res.Events++
				spec := en.flows[fid].spec
				en.trace.Record(trace.Event{
					At: s.now, Kind: trace.FlowArrive,
					Flow: s.publicID(fid), Link: -1, Node: int32(spec.Src), Value: spec.Bytes,
				})
				s.batch = append(s.batch, fid)
			}
			en.arrive(s.batch, s.now)
		default:
			s.batch = en.popDue(s.now, s.batch[:0])
			en.complete(s.batch, s.now)
			for _, fid := range s.batch {
				s.res.Events++
				fr := en.result(fid, s.now)
				en.trace.Record(trace.Event{
					At: s.now, Kind: trace.FlowComplete,
					Flow: s.publicID(fid), Link: -1, Node: int32(fr.Spec.Dst), Value: int64(fr.FCT),
				})
				s.res.Flows = append(s.res.Flows, fr)
				s.status[fid] = FlowStatus{Done: true, Start: fr.Start, FCT: fr.FCT}
				s.completed++
				s.hops += int64(fr.Hops)
			}
		}
		en.compactDone()
	}
	if idleForward && until > s.now && until != sim.Forever {
		s.now = until
	}
	return nil
}

// Inject appends a batch of specs to the session — the one way flows enter
// it, before the first Advance or mid-run. At values are absolute session
// instants; an At earlier than the clock arrives immediately. The returned
// IDs are batch-major: total flows ever added + canonical position within
// this batch, so IDs handed out for earlier batches never renumber. A
// destination unreachable under a live fault is not an error: the flow
// parks unrouted and is re-pathed when it arrives or when the partition
// heals.
func (s *Session) Inject(specs []workload.FlowSpec) ([]int, error) {
	if len(specs) == 0 {
		return nil, nil
	}
	s.canon = canonicalOrder(specs, s.canon)
	s.sorted = slices.Grow(s.sorted[:0], len(specs))
	for _, in := range s.canon {
		s.sorted = append(s.sorted, specs[in])
	}
	if err := workload.ValidateSpecs(s.sorted, s.cfg.Graph.NumNodes()); err != nil {
		return nil, err
	}
	en := s.en
	fidBase := len(en.flows)
	if err := en.addBatch(s.sorted); err != nil {
		return nil, fmt.Errorf("fluid: routing: %w", err)
	}
	// Append a zero record per new flow (Retire's compaction leaves Done
	// records past the end). Unlike append(s, make(...)...), whose
	// temporary race builds allocate, this allocates only to grow.
	s.status = slices.Grow(s.status, len(s.sorted))
	for range s.sorted {
		s.status = append(s.status, FlowStatus{})
	}
	s.arrivalQ.Grow(s.arrivalQ.Len() + len(s.sorted))
	for i := range s.sorted {
		s.arrivalQ.Push(arrivalEntry{at: s.sorted[i].At, fid: int32(fidBase + i)})
	}
	ids := make([]int, len(specs))
	base := s.idBase + fidBase
	for id, in := range s.canon {
		ids[in] = base + id
	}
	return ids, nil
}

// Retire drops the per-flow state of the longest fully-completed prefix of
// the ID space and rebases the survivors down — the bounded-memory primitive
// for service mode. Public IDs are untouched (id maps to internal index
// id − idBase), and the internal rebase is a uniform shift: every ordering
// the solver ties on (completion-heap fid tie-breaks, flow-ID iteration,
// arrival order) is invariant under it, so a retired session's subsequent
// computation is bit-identical to an unretired one's. Pending flows are
// never Done, so the cut never crosses an arrival still in the queue.
// Returns the number of flows retired.
func (s *Session) Retire() int {
	cut := 0
	for cut < len(s.status) && s.status[cut].Done {
		cut++
	}
	if cut == 0 {
		return 0
	}
	en := s.en
	// Entries for retired flows are all stale (a completed flow is
	// inactive); drop them before the rebase so no entry ever indexes out
	// of range.
	en.done.Filter(func(e doneEntry) bool { return int(e.fid) >= cut })
	en.done.Reindex(func(e doneEntry) doneEntry { e.fid -= int32(cut); return e })
	s.arrivalQ.Reindex(func(e arrivalEntry) arrivalEntry { e.fid -= int32(cut); return e })
	for li := range en.linkFlows {
		lf := en.linkFlows[li]
		for k := range lf {
			lf[k] -= int32(cut)
		}
	}
	n := len(en.flows) - cut
	copy(en.flows, en.flows[cut:])
	for i := n; i < len(en.flows); i++ {
		en.flows[i] = flowState{} // release retired path slices
	}
	en.flows = en.flows[:n]
	en.flowEpoch = append(en.flowEpoch[:0], en.flowEpoch[cut:]...)
	en.frozenEpoch = append(en.frozenEpoch[:0], en.frozenEpoch[cut:]...)
	s.status = append(s.status[:0], s.status[cut:]...)
	s.idBase += cut
	return cut
}

// TakeCompleted drains and returns the completion records accumulated since
// the last call, in completion order. Service drivers stream results out
// through it so a long-running session's Result does not grow with history;
// a Snapshot after a Take holds only the undrained tail. The result is
// valid until the next TakeCompleted: the session hands out two record
// buffers in turn, so a warmed service tick drains without allocating, and
// a caller that keeps records longer copies them.
func (s *Session) TakeCompleted() []FlowResult {
	out := s.res.Flows
	s.res.Flows, s.taken = s.taken[:0], out
	return out
}

// Distance returns the hop count of the shortest live path from src to dst
// (+Inf when dst is unreachable, 0 for src itself). It reads the session's
// route table, which prices every live link (topo.Edge.Live) at 1 and which
// each applied fault group repairs, so it equals a topo.HopCounter count
// over the graph the session's faults left. The first batch of flows
// builds the table; before it, Distance builds one it does not keep, so
// that a fault group's repair count does not depend on the call.
func (s *Session) Distance(src, dst int) float64 {
	t := s.en.table
	if t == nil {
		t = route.Build(s.en.graph, route.UniformCost)
	}
	return t.Distance(topo.NodeID(src), topo.NodeID(dst))
}

// Totals is a session's running counters. Completed and Hops cover every
// flow the session completed, those TakeCompleted drained and Retire
// dropped included.
type Totals struct {
	Completed int64 // flows completed
	Hops      int64 // path hops summed over those flows
	Solver    SolverStats
	Faults    faults.Stats
}

// Totals returns the session's running counters without copying its
// completion records.
func (s *Session) Totals() Totals {
	return Totals{Completed: s.completed, Hops: s.hops, Solver: s.en.stats.SolverStats, Faults: s.en.stats.Faults}
}

// Snapshot returns a copy of the results so far. The live run is
// untouched; completed flows are in completion order exactly as Run reports
// them.
func (s *Session) Snapshot() *Result {
	return &Result{
		Flows:  append([]FlowResult(nil), s.res.Flows...),
		Events: s.res.Events,
		Solver: s.en.stats.SolverStats,
		Faults: s.en.stats.Faults,
	}
}

// finish seals the session's own Result — Run's return value.
func (s *Session) finish() *Result {
	s.res.Solver = s.en.stats.SolverStats
	s.res.Faults = s.en.stats.Faults
	return s.res
}

// RestoreGraph puts every edge's administrative state back to its
// pre-session value (a no-op for fault-free sessions). Run defers it so a
// faulted run leaves the topology as it found it; façade callers that own
// their graph never need it.
func (s *Session) RestoreGraph() {
	for i, e := range s.savedEdges {
		e.SetEnabled(s.savedEnabled[i])
	}
}
