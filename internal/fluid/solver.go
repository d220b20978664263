package fluid

import (
	"errors"
	"math"
	"slices"

	"rackfab/internal/faults"
	"rackfab/internal/heapx"
	"rackfab/internal/route"
	"rackfab/internal/sim"
	"rackfab/internal/switching"
	"rackfab/internal/topo"
	"rackfab/internal/trace"
	"rackfab/internal/workload"
)

// flowState is one fluid flow, identified by its index in engine.flows.
// Flow IDs are assigned in canonical spec order (see canonicalize), so every
// piece of per-flow state — and every tie broken by flow ID — is a pure
// function of the spec multiset, never of input order or map iteration.
type flowState struct {
	spec  workload.FlowSpec
	links []int32 // stable link IDs (topo Edge.Index) along the path
	hops  int

	remaining float64  // bits left at time `settled`
	rate      float64  // bit/s from the last max-min fill (0 = starved)
	start     sim.Time // arrival instant
	settled   sim.Time // instant `remaining` was last brought up to date
	finish    sim.Time // projected completion under `rate`
	gen       uint32   // bumped on every rate change; stale doneHeap filter
	seq       int64    // global freeze order; encodes the last fill's round chronology
	fill      uint64   // ID of the fill that last froze this flow
	active    bool

	// starved marks an active flow pinned at rate 0 by a zero-capacity
	// link on its path; starvedAt is when the episode began, for the
	// recovery-time accounting the churn experiments report.
	starved   bool
	starvedAt sim.Time
}

// settle advances f.remaining to `now` under the current rate. Rates only
// change inside refill, so between fills remaining is a linear function of
// time and needs no per-event touch — this is what makes event cost
// proportional to the affected component instead of to all active flows.
func (f *flowState) settle(now sim.Time) {
	if now > f.settled {
		f.remaining -= f.rate * now.Sub(f.settled).Seconds()
		if f.remaining < 0 {
			f.remaining = 0
		}
		f.settled = now
	}
}

// levelEntry is one oracle entry for the warm-start replay: a component
// flow, the rate its last fill gave it, and its global freeze sequence
// number. Entries sort by seq — the chronological round order of the fill
// that assigned the rates — NOT by rate: a fill's round levels are almost
// always ascending, but a floating-point share can dip below an earlier
// level, and replaying the exact chronology keeps every per-link
// subtraction order (and so every bit of state) faithful even then.
type levelEntry struct {
	rate float64
	seq  int64
	fid  int32
}

// engine is the indexed fluid solver. All state lives in flat slices keyed
// by flow ID or link ID (topo Edge.Index); nothing on the hot path iterates
// a Go map, so identical inputs produce byte-identical results.
type engine struct {
	graph *topo.Graph
	table *route.Table

	// cold disables the warm-start replay so every refill runs progressive
	// filling from zero. The two paths are bit-identical by construction
	// (warmRounds falls back to coldRounds the moment a round deviates from
	// the oracle); the flag exists so tests can prove it.
	cold bool

	flows       []flowState
	activeCount int

	// Per-link state, indexed by stable link ID.
	linkCap   []float64 // live capacity (nominal snapshot ± fault events)
	linkFlows [][]int32 // active flow IDs crossing each link

	// Fault-injection state. nominalCap is the healthy-capacity snapshot
	// fault factors multiply; routesChanged marks the table diverged from
	// the one addBatch routed against, so arrivals re-path; starvedNow
	// counts active flows pinned at rate 0.
	nominalCap    []float64
	routesChanged bool
	starvedNow    int

	// seedBuf is the refill seed of one batch, each link once: an
	// instant's arrival or completion paths, or a fault group's changed
	// links and the old and new paths of the flows it moved. faultEdges
	// holds a fault group's administratively flipped edges for its one
	// RepairBatch.
	seedBuf    []int32
	faultEdges []*topo.Edge

	// stats accumulates the run's solver and fault observability counters,
	// copied into Result at end of run.
	stats struct {
		SolverStats
		Faults faults.Stats
	}

	// Completion-time heap with lazy invalidation: entries are (finish,
	// flowID, rate generation) and losers are discarded on peek.
	done heapx.Heap[doneEntry]

	// Scratch for the incremental fill, reused across events. Membership is
	// epoch-stamped so clearing costs nothing.
	epoch       uint32
	linkEpoch   []uint32
	flowEpoch   []uint32
	frozenEpoch []uint32
	capLeft     []float64
	unfrozen    []int32
	alive       []int32
	compLinks   []int32
	compFlows   []int32
	levels      []levelEntry // warm-start oracle, put in seq order by warmRounds
	slots       []levelEntry // warmRounds' scratch: levels placed by seq
	passA       []int32      // scheduled flows cleared to freeze this round
	zeroRates   int          // component flows with no previous rate

	// Round-closure state: tied is the worklist of links at exactly the
	// round's bottleneck share; tieStamp dedupes enqueues per round.
	// seedMark stamps the current fill's seed links (epoch-scoped) so the
	// warm drain can recognize flows confined to the perturbed path.
	round    uint32
	tieStamp []uint32
	tied     []int32
	seedMark []uint32

	// freezeSeq stamps flows in freeze order and fillSeq identifies the
	// fill doing the stamping; dead permanently disables warm start after
	// a defensive solver bail (see coldRounds), whose leftover stale
	// sequence numbers the oracle must never trust.
	freezeSeq int64
	fillSeq   uint64
	dead      bool

	// trace, when non-nil, receives a flight-recorder event per refill
	// (warm/fallback/cold outcome) and post-fill windowed series points for
	// every component link. Pure observability: never read by the solver.
	trace *trace.Recorder

	// oracleFill is the one fill that stamped every oracle entry of the
	// current component, or 0 when the entries mix fills. A mixed component
	// arises when an arrival bridges parts last solved by different fills:
	// their chronologies never interleaved, so the sequence stamps alone
	// don't order the merged schedule. warmRounds reconstructs it by rate
	// (each part's chronology preserved via the seq tie-break) when every
	// part's own levels ascend, and goes cold once — restamping the union
	// with a common chronology — only when a floating-point dip inside a
	// part makes that reconstruction unsound.
	oracleFill uint64
}

// newEngine builds the indexed solver for one run. Healthy link capacities
// are snapshotted once into nominalCap; the live linkCap starts equal and
// moves only through applyLinkEventGroup (fault injection) — a fault-free run
// never reconfigures mid-flight. The routing table is built lazily by
// addBatch — a run over zero specs (which guards probe for) never pays the
// O(n²) table build.
func newEngine(g *topo.Graph) *engine {
	en := &engine{graph: g}
	nl := g.EdgeIndexBound()
	en.linkCap = make([]float64, nl)
	en.nominalCap = make([]float64, nl)
	en.linkFlows = make([][]int32, nl)
	for _, e := range g.Edges() {
		en.linkCap[e.Index()] = e.Link.EffectiveRate()
		en.nominalCap[e.Index()] = en.linkCap[e.Index()]
	}
	en.linkEpoch = make([]uint32, nl)
	en.tieStamp = make([]uint32, nl)
	en.seedMark = make([]uint32, nl)
	en.capLeft = make([]float64, nl)
	en.unfrozen = make([]int32, nl)
	return en
}

// onlySeedLinks reports whether every link flow fid crosses is a seed link
// of the current fill (stamped by warmRounds at entry).
func (en *engine) onlySeedLinks(fid int32) bool {
	for _, li := range en.flows[fid].links {
		if en.seedMark[li] != en.epoch {
			return false
		}
	}
	return true
}

// addBatch routes and appends a batch of canonicalized specs —
// Session.Inject's engine half, the only way flows enter the engine. Flows
// start inactive; arrive activates them. An unreachable destination is not
// an error: an injection can race an unhealed fault, so the flow parks with
// no path (it starves at rate 0 on arrival) and the fault group that heals
// the partition re-paths it. The zero epoch stamps of appended entries
// are never live: engine.epoch starts counting at 1.
func (en *engine) addBatch(specs []workload.FlowSpec) error {
	if len(specs) == 0 {
		return nil
	}
	if en.table == nil {
		en.table = route.Build(en.graph, route.UniformCost)
	}
	en.flows = slices.Grow(en.flows, len(specs))
	en.flowEpoch = slices.Grow(en.flowEpoch, len(specs))
	en.frozenEpoch = slices.Grow(en.frozenEpoch, len(specs))
	for _, spec := range specs {
		fs := flowState{spec: spec}
		path, err := en.table.Path(topo.NodeID(spec.Src), topo.NodeID(spec.Dst))
		switch {
		case err == nil:
			fs.links = path
			fs.hops = len(path)
		case errors.Is(err, route.ErrUnreachable):
			// Parked: every current path crosses a dead link.
		default:
			return err
		}
		en.flows = append(en.flows, fs)
		en.flowEpoch = append(en.flowEpoch, 0)
		en.frozenEpoch = append(en.frozenEpoch, 0)
	}
	return nil
}

// arrive activates the flows of batch — every arrival due at `now` — and
// re-solves their components with one refill seeded by the union of their
// paths, each link once. A component's fill depends only on its flows and
// link capacities, so the one fill gives every flow the rate the last of a
// per-arrival chain of fills would. A batch of one seeds with the flow's
// path in path order and names it the newcomer the warm replay absorbs; a
// larger batch has several flows without a previous rate, which the
// replay's entry guard sends to the scan loop.
//
// After a fault has changed routing, the path addBatch computed may be
// stale: the flow re-paths against the repaired table, and if its
// destination is currently unreachable it keeps the path it was injected
// with (or none, if it was injected unreachable) — every such path crosses
// a dead link, so the flow parks at rate 0 until a repair heals the
// partition (the healing fault group re-paths it then).
func (en *engine) arrive(batch []int32, now sim.Time) {
	for _, fid := range batch {
		f := &en.flows[fid]
		if en.routesChanged {
			if links, ok := en.repath(fid); ok {
				f.links = links
				f.hops = len(links)
			}
		}
		f.active = true
		f.start = now
		f.settled = now
		f.remaining = float64(f.spec.Bytes) * 8
		f.rate = 0
		en.activeCount++
		for _, li := range f.links {
			en.linkFlows[li] = append(en.linkFlows[li], fid)
		}
	}
	newcomer := int32(-1)
	if len(batch) == 1 {
		newcomer = batch[0]
	}
	en.refill(now, en.seedPaths(batch), newcomer)
	for _, fid := range batch {
		if en.flows[fid].rate == 0 {
			// Arrived straight into a dead path: the refill froze it at
			// zero, which setRate's transition tracking cannot see (0 → 0).
			en.noteStarved(fid, now)
		}
	}
}

// complete deactivates the flows of batch — every completion due at `now`
// — and re-solves the components they leave behind with one refill seeded
// by the union of their paths, each link once. A component's fill depends
// only on its flows and link capacities, so the one fill gives every
// survivor the rate the last of a per-completion chain of fills would. A
// batch of one seeds with the flow's path in path order. The flows keep
// their paths and start instants for result.
func (en *engine) complete(batch []int32, now sim.Time) {
	for _, fid := range batch {
		f := &en.flows[fid]
		f.active = false
		f.remaining = 0
		f.rate = 0
		en.activeCount--
		en.unlink(fid)
	}
	en.refill(now, en.seedPaths(batch), -1)
}

// result is the record of flow fid, completed at `now`.
func (en *engine) result(fid int32, now sim.Time) FlowResult {
	f := &en.flows[fid]
	return FlowResult{
		Spec:  f.spec,
		Start: f.start,
		FCT:   now.Sub(f.start) + sim.Duration(int64(switching.DefaultPipelineLatency)*int64(f.hops)),
		Hops:  f.hops,
	}
}

// seedPaths lists, in seedBuf, each link of the batch's paths once, in
// batch then path order. The stamps use a fresh epoch; component starts
// its own, so they never reach the fill.
func (en *engine) seedPaths(batch []int32) []int32 {
	en.epoch++
	en.seedBuf = en.seedBuf[:0]
	for _, fid := range batch {
		for _, li := range en.flows[fid].links {
			en.seed(li)
		}
	}
	return en.seedBuf
}

// seed appends link li to seedBuf unless the current epoch already
// stamped it there.
func (en *engine) seed(li int32) {
	if en.linkEpoch[li] != en.epoch {
		en.linkEpoch[li] = en.epoch
		en.seedBuf = append(en.seedBuf, li)
	}
}

// unlink drops flow fid from the flow list of every link on its path.
func (en *engine) unlink(fid int32) {
	for _, li := range en.flows[fid].links {
		lf := en.linkFlows[li]
		for k, id := range lf {
			if id == fid {
				lf[k] = lf[len(lf)-1]
				en.linkFlows[li] = lf[:len(lf)-1]
				break
			}
		}
	}
}

// component collects, into compLinks/compFlows, the connected component of
// the link–flow sharing graph reachable from the seed links, and resets
// per-link fill state (capLeft, unfrozen) as it discovers each link.
// Max-min allocations decompose over these components: a perturbation on
// the seed links can change rates only inside its component, so refill
// touches nothing else. On the warm path the flow-discovery loop also
// banks the oracle — each flow's previous rate — while its state is hot.
func (en *engine) component(seed []int32) {
	en.epoch++
	en.compLinks = en.compLinks[:0]
	en.compFlows = en.compFlows[:0]
	en.levels = en.levels[:0]
	en.zeroRates = 0
	for _, li := range seed {
		if en.linkEpoch[li] != en.epoch {
			en.linkEpoch[li] = en.epoch
			en.compLinks = append(en.compLinks, li)
			en.capLeft[li] = en.linkCap[li]
			en.unfrozen[li] = int32(len(en.linkFlows[li]))
		}
	}
	for i := 0; i < len(en.compLinks); i++ {
		for _, fid := range en.linkFlows[en.compLinks[i]] {
			if en.flowEpoch[fid] == en.epoch {
				continue
			}
			en.flowEpoch[fid] = en.epoch
			en.compFlows = append(en.compFlows, fid)
			if f := &en.flows[fid]; f.rate > 0 {
				if len(en.levels) == 0 {
					en.oracleFill = f.fill
				} else if f.fill != en.oracleFill {
					en.oracleFill = 0
				}
				en.levels = append(en.levels, levelEntry{rate: f.rate, seq: f.seq, fid: fid})
			} else {
				en.zeroRates++
			}
			for _, lj := range en.flows[fid].links {
				if en.linkEpoch[lj] != en.epoch {
					en.linkEpoch[lj] = en.epoch
					en.compLinks = append(en.compLinks, lj)
					en.capLeft[lj] = en.linkCap[lj]
					en.unfrozen[lj] = int32(len(en.linkFlows[lj]))
				}
			}
		}
	}
}

// refill recomputes the max-min fair allocation of the component around the
// seed links by progressive filling. Each round fixes the smallest fair
// share (capacity per unfrozen flow) over the still-live component links,
// then freezes the round's closure: the worklist of links sitting at
// exactly that share, grown one subtraction at a time as freezes pull more
// links down to the level (see closeRound). Because every k-th subtraction
// state of every link is observed, the closure — and with it every
// floating-point operation of the fill — is independent of link visit
// order: a pure function of component state.
//
// The seed is every link a perturbation touched: the paths of an instant's
// arrivals or of its completions, or the changed links of its fault group
// with the old and new paths of the flows the group moved. newcomer is the
// flow (≥ 0) whose lone arrival triggered this refill — the one component
// flow with no previous rate. The warm path replays the previous
// allocation as the round schedule and falls back to the scan loop the
// moment the perturbation deviates from it; see warmRounds.
func (en *engine) refill(now sim.Time, seed []int32, newcomer int32) {
	en.component(seed)
	remaining := len(en.compFlows)
	if remaining == 0 {
		return
	}
	en.fillSeq++
	if en.cold || en.dead {
		en.coldRounds(now, remaining)
		en.stats.ColdFills++
		en.traceFill(now, trace.FillCold, remaining)
		return
	}
	if en.warmRounds(now, seed, newcomer, remaining) {
		en.stats.WarmHits++
		en.traceFill(now, trace.FillWarm, remaining)
	} else {
		en.stats.WarmFallbacks++
		en.traceFill(now, trace.FillFallback, remaining)
	}
}

// traceFill records one refill outcome (Value = component flow count) and
// the component's post-fill series points: per-link utilization — the
// allocated fraction of live capacity, read off capLeft which the fill
// just finished consuming — and depth, the active flows sharing the link.
// Links outside the component kept their previous allocation, so their
// last observation still stands; only what the fill touched is re-sampled.
func (en *engine) traceFill(now sim.Time, kind trace.Kind, flows int) {
	if en.trace == nil {
		return
	}
	en.trace.Record(trace.Event{
		At: now, Kind: kind, Flow: -1, Link: -1, Node: -1, Value: int64(flows),
	})
	for _, li := range en.compLinks {
		util := 0.0
		if c := en.linkCap[li]; c > 0 {
			util = 1 - en.capLeft[li]/c
			if util < 0 {
				util = 0
			} else if util > 1 {
				util = 1
			}
		}
		en.trace.ObserveUtil(li, now, util)
		en.trace.ObserveDepth(li, now, float64(len(en.linkFlows[li])))
	}
}

// coldRounds runs progressive-filling rounds from the current component
// state until every component flow is frozen, finding each round's
// bottleneck share by a flat scan of the live links. It is both the
// from-zero solver (cold engine, warm fallback) and the semantics
// warmRounds must reproduce bit-for-bit.
func (en *engine) coldRounds(now sim.Time, remaining int) {
	en.alive = en.alive[:0]
	for _, li := range en.compLinks {
		if en.unfrozen[li] > 0 {
			en.alive = append(en.alive, li)
		}
	}
	for remaining > 0 {
		// Round: compact the live list and find the bottleneck share.
		best := math.Inf(1)
		kept := en.alive[:0]
		for _, li := range en.alive {
			if en.unfrozen[li] == 0 {
				continue
			}
			kept = append(kept, li)
			if share := en.capLeft[li] / float64(en.unfrozen[li]); share < best {
				best = share
			}
		}
		en.alive = kept
		if len(en.alive) == 0 {
			// Defensive only: every unfrozen component flow keeps each of its
			// links' unfrozen counts positive, so a live link must exist while
			// remaining > 0. Bail rather than spin if that invariant breaks —
			// and retire the warm oracle: the unfrozen flows keep stale
			// sequence numbers no future replay may trust.
			en.dead = true
			return
		}
		en.round++
		en.tied = en.tied[:0]
		for _, li := range en.alive {
			if en.capLeft[li]/float64(en.unfrozen[li]) == best {
				en.tieStamp[li] = en.round
				en.tied = append(en.tied, li)
			}
		}
		remaining = en.closeRound(now, best, remaining)
	}
}

// closeRound freezes the round's closure at the bottleneck share: every
// flow of every link in the tied worklist, which freeze itself grows —
// symmetric fabrics keep whole waves of links at exactly the share as
// their neighbors' flows freeze, so one round typically retires an entire
// tie class and the scan loop runs far fewer rounds than tie churn would
// suggest. Callers seed en.tied (and en.round) before the call; freeze
// appends links that reach the share. Returns the updated unfrozen count.
func (en *engine) closeRound(now sim.Time, best float64, remaining int) int {
	for w := 0; w < len(en.tied); w++ {
		li := en.tied[w]
		for _, fid := range en.linkFlows[li] {
			if en.frozenEpoch[fid] == en.epoch {
				continue // frozen via an earlier link this round
			}
			en.frozenEpoch[fid] = en.epoch
			remaining--
			en.freeze(fid, now, best)
		}
	}
	return remaining
}

// freeze fixes flow fid at the round's bottleneck share, subtracting it
// from every link on the flow's path. After each subtraction the link's
// new share is checked: exactly at the round's level, the link joins the
// tied worklist — growing the round's closure one observed subtraction at
// a time, which is what makes the closure independent of visit order. The
// sequence stamp records the engine-wide freeze chronology the next warm
// replay of this component will follow.
func (en *engine) freeze(fid int32, now sim.Time, best float64) {
	en.flows[fid].seq = en.freezeSeq
	en.flows[fid].fill = en.fillSeq
	en.freezeSeq++
	for _, lj := range en.flows[fid].links {
		en.unfrozen[lj]--
		en.capLeft[lj] -= best
		if en.capLeft[lj] < 0 {
			en.capLeft[lj] = 0
		}
		if n := en.unfrozen[lj]; n > 0 && en.capLeft[lj]/float64(n) == best {
			if en.tieStamp[lj] != en.round {
				en.tieStamp[lj] = en.round
				en.tied = append(en.tied, lj)
			}
		}
	}
	en.setRate(fid, now, best)
}

// warmRounds re-solves the component seeded from its previous allocation.
//
// Between two fills that touch a link nothing about that link changes, so
// at refill time every component link except the seed path carries exactly
// the flow set and rates its own last fill left behind. Those old rates
// ARE the old round schedule: sorted ascending they give the former
// bottleneck levels, and the flows at each level the former freeze sets.
// The replay walks that schedule with the same closure machinery as
// coldRounds, skipping the per-round scan of every live component link:
//
//   - links off the seed path ("clean") evolve exactly as in their own
//     last fill while rounds match, so no clean share lies below the next
//     old level;
//   - seed links are perturbed (a flow arrived on or departed from them),
//     so they are checked explicitly each round: their live minimum can
//     undercut the schedule (then the round is seed-led);
//   - a scheduled flow freezes at round start only when one of its links
//     sits exactly at the level. The old level may have been set by a
//     seed link, with clean links joining that round's closure only
//     through the freezes of flows crossing the seed links: a flow that
//     sits at no level link now is left to the closure, and the round
//     goes off-schedule if the closure never reaches it;
//   - the newcomer has no old rate and crosses only seed links; it freezes
//     whenever a seed link carrying it reaches the round's level — the one
//     off-schedule freeze the replay absorbs, since it perturbs no clean
//     link's trajectory.
//
// Any other deviation — a foreign flow dragged into a round's closure, a
// scheduled flow left unfrozen by it, a share dipping below the level —
// means the old schedule is dead. The closure still completes (its freeze
// set is order-free, so the state stays exactly what coldRounds would have
// reached at the round boundary) and the rest of the fill runs through the
// coldRounds scan loop. Warm and cold therefore produce identical
// allocations to the last bit — the fuzz and determinism tests hold both
// paths to that.
//
// The return value reports whether the replay survived to the end of the
// fill: false whenever any portion ran through the coldRounds scan loop
// (entry guard or mid-fill fallback) — the warm-start hit-rate telemetry
// the experiments print.
func (en *engine) warmRounds(now sim.Time, seed []int32, newcomer int32, remaining int) bool {
	if en.zeroRates > 1 || (en.zeroRates == 1 && newcomer < 0) {
		// A flow with no previous rate that isn't the newcomer — a starved
		// corner the schedule can't speak for.
		en.coldRounds(now, remaining)
		return false
	}
	lv := en.levels
	if en.oracleFill == 0 {
		// Merge replay: the oracle entries were stamped by different fills —
		// an arrival bridged parts last solved separately. The parts shared
		// no link (they were distinct components), so each part's clean
		// links still evolve exactly as in that part's own last fill, and
		// the merged scan loop would consume the union of the part
		// schedules in ascending level order. That merged chronology exists
		// only if every part's own levels ascend in its freeze order:
		// sorting by (fill, seq) to check, then by (rate, seq) to replay,
		// reproduces it. A floating-point dip inside any part means no
		// single ordering serves both the rate scan and that part's
		// chronology, and the fill goes cold once to restamp the union.
		slices.SortFunc(lv, func(a, b levelEntry) int {
			if fa, fb := en.flows[a.fid].fill, en.flows[b.fid].fill; fa != fb {
				if fa < fb {
					return -1
				}
				return 1
			}
			if a.seq < b.seq {
				return -1
			}
			return 1
		})
		for k := 1; k < len(lv); k++ {
			if en.flows[lv[k].fid].fill == en.flows[lv[k-1].fid].fill && lv[k].rate < lv[k-1].rate {
				en.coldRounds(now, remaining)
				return false
			}
		}
		slices.SortFunc(lv, func(a, b levelEntry) int {
			if a.rate != b.rate {
				if a.rate < b.rate {
					return -1
				}
				return 1
			}
			if a.seq < b.seq {
				return -1
			}
			return 1
		})
	} else if len(lv) > 1 {
		// One fill stamped every entry, with consecutive sequence numbers:
		// each entry's place in freeze order is its seq less the smallest,
		// with a gap for each flow that fill froze and the component no
		// longer holds a rate for. Compacting the slots needs no compare.
		lo, hi := lv[0].seq, lv[0].seq
		for _, e := range lv[1:] {
			lo, hi = min(lo, e.seq), max(hi, e.seq)
		}
		slots := slices.Grow(en.slots[:0], int(hi-lo+1))[:hi-lo+1]
		clear(slots)
		for _, e := range lv {
			slots[e.seq-lo] = e
		}
		lv = lv[:0]
		for _, e := range slots {
			if e.rate > 0 { // every entry holds a positive rate; gaps are zero
				lv = append(lv, e)
			}
		}
		en.slots = slots
	}
	// seedMark stamps the seed links so the drain loop can tell a flow
	// confined entirely to the perturbed path — absorbable like the
	// newcomer — from one whose rate change would invalidate a clean
	// link's trajectory.
	for _, li := range seed {
		en.seedMark[li] = en.epoch
	}

	i := 0
	for remaining > 0 {
		dirtyMin := math.Inf(1)
		for _, li := range seed {
			if en.unfrozen[li] > 0 {
				if s := en.capLeft[li] / float64(en.unfrozen[li]); s < dirtyMin {
					dirtyMin = s
				}
			}
		}
		next := math.Inf(1)
		if i < len(lv) {
			next = lv[i].rate
		}
		b := next
		if dirtyMin < b {
			b = dirtyMin
		}
		if math.IsInf(b, 1) {
			// No scheduled level and no live seed link, yet flows remain:
			// hand the stragglers to the scan loop.
			en.coldRounds(now, remaining)
			return false
		}
		en.round++
		en.tied = en.tied[:0]
		offSchedule := false
		// Seed the closure with the seed links at the level; a seed-led
		// round (dirtyMin < next) starts from them alone.
		for _, li := range seed {
			if en.unfrozen[li] > 0 && en.tieStamp[li] != en.round &&
				en.capLeft[li]/float64(en.unfrozen[li]) == b {
				en.tieStamp[li] = en.round
				en.tied = append(en.tied, li)
			}
		}
		j := i
		if b == next {
			for j < len(lv) && lv[j].rate == b {
				j++
			}
			// Decide every scheduled flow against round-START state before
			// any freeze mutates it — coldRounds collects its tied set the
			// same way. A flow with no link at the level now may still
			// join the closure later.
			en.passA = en.passA[:0]
			for k := i; k < j; k++ {
				fid := lv[k].fid
				for _, li := range en.flows[fid].links {
					if en.capLeft[li]/float64(en.unfrozen[li]) == b {
						en.passA = append(en.passA, fid)
						break
					}
				}
			}
			for _, fid := range en.passA {
				if en.frozenEpoch[fid] == en.epoch {
					continue // already caught by this round's seed links
				}
				en.frozenEpoch[fid] = en.epoch
				remaining--
				en.freeze(fid, now, b)
			}
		}
		// Drain the closure: every flow of every link at the level freezes.
		// Flows the schedule didn't put here are either the newcomer
		// (absorbed) or evidence the schedule is dead (finish the round —
		// its freeze set is what coldRounds would do regardless — then
		// fall back).
		for w := 0; w < len(en.tied); w++ {
			li := en.tied[w]
			for _, fid := range en.linkFlows[li] {
				if en.frozenEpoch[fid] == en.epoch {
					continue
				}
				if fid != newcomer && en.flows[fid].rate != b && !en.onlySeedLinks(fid) {
					// A flow freezing off its old rate kills the schedule —
					// unless every link it crosses is a seed link. Such a
					// flow is absorbed like the newcomer: seed links are
					// re-verified live every round (dirtyMin), so its new
					// rate perturbs no trajectory the schedule still
					// depends on, and its own stale level entry drains as
					// an empty round when the cursor reaches it.
					offSchedule = true
				}
				en.frozenEpoch[fid] = en.epoch
				remaining--
				en.freeze(fid, now, b)
			}
		}
		if b == next {
			// Scheduled flows the closure never reached freeze later under
			// cold — the schedule is dead past this round.
			for k := i; k < j; k++ {
				if en.frozenEpoch[lv[k].fid] != en.epoch {
					offSchedule = true
					break
				}
			}
			i = j
		}
		if offSchedule {
			en.coldRounds(now, remaining)
			return false
		}
	}
	return true
}

// setRate settles flow fid and repoints it at a new rate, refreshing its
// completion-heap entry. An unchanged rate is a no-op: the flow's projected
// finish instant is invariant under settlement, so the existing heap entry
// stays valid and the heap only grows where the perturbation actually
// changed something.
func (en *engine) setRate(fid int32, now sim.Time, rate float64) {
	f := &en.flows[fid]
	if rate == f.rate {
		return
	}
	if rate == 0 && f.rate > 0 {
		en.noteStarved(fid, now)
	}
	f.settle(now)
	f.rate = rate
	f.gen++
	if rate > 0 {
		if f.starved {
			// The flow came back: a repair restored capacity or a reroute
			// found a live path. An episode only counts if the flow
			// actually waited. A flow starved by one fault group and
			// revived by another at the same instant never lost service
			// time; only an ApplyFaults whose events fall at or before the
			// clock gives one instant two groups.
			if d := now.Sub(f.starvedAt); d > 0 {
				en.stats.Faults.StarvedEpisodes++
				en.stats.Faults.StarvedTime += d
			}
			f.starved = false
			en.starvedNow--
		}
		f.finish = now.Add(sim.Seconds(f.remaining / rate))
		en.done.Push(doneEntry{t: f.finish, fid: fid, gen: f.gen})
	}
}

// noteStarved marks active flow fid starved: a zero-capacity link on its
// path pinned it at rate 0. Idempotent per episode; setRate closes (and
// counts) the episode when the rate comes back.
func (en *engine) noteStarved(fid int32, now sim.Time) {
	f := &en.flows[fid]
	if f.starved {
		return
	}
	f.starved = true
	f.starvedAt = now
	en.starvedNow++
}

// nextDone returns the earliest valid projected completion, breaking exact
// time ties by lowest flow ID. Stale entries (completed flows, superseded
// rates) are discarded on the way; when the live fraction drops too low the
// heap is compacted so lazy deletion stays O(active).
func (en *engine) nextDone() (sim.Time, int32) {
	for en.done.Len() > 0 {
		e := en.done.Min()
		f := &en.flows[e.fid]
		if f.active && e.gen == f.gen {
			return e.t, e.fid
		}
		en.done.Pop()
	}
	return sim.Forever, -1
}

// popDue pops every valid completion entry whose finish is `now` onto
// batch, in flow-ID order (the heap's tie order), and returns it.
func (en *engine) popDue(now sim.Time, batch []int32) []int32 {
	for {
		t, fid := en.nextDone()
		if fid < 0 || t != now {
			return batch
		}
		en.done.Pop()
		batch = append(batch, fid)
	}
}

// compactDone drops stale completion entries in place when they dominate.
func (en *engine) compactDone() {
	if en.done.Len() < 4*en.activeCount+64 {
		return
	}
	en.done.Filter(func(e doneEntry) bool {
		f := &en.flows[e.fid]
		return f.active && e.gen == f.gen
	})
}

// doneEntry is a projected flow completion: ordered by time, then flow ID —
// a total order, so tied finishes resolve identically on every run.
type doneEntry struct {
	t   sim.Time
	fid int32
	gen uint32
}

// Before implements heapx.Ordered.
func (e doneEntry) Before(other doneEntry) bool {
	if e.t != other.t {
		return e.t < other.t
	}
	return e.fid < other.fid
}
