package fluid

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"rackfab/internal/faults"
	"rackfab/internal/sim"
	"rackfab/internal/topo"
	"rackfab/internal/workload"
)

// canonicalize returns the specs sorted by (At, Src, Dst, Bytes, Label).
// Flow IDs are indexes into this order, which makes every tie-break — and
// therefore the whole run — independent of the caller's spec ordering.
func canonicalize(specs []workload.FlowSpec) []workload.FlowSpec {
	sorted := append([]workload.FlowSpec(nil), specs...)
	sort.SliceStable(sorted, func(i, j int) bool { return specLess(sorted[i], sorted[j]) })
	return sorted
}

// shuffleSpecs permutes specs in place (Fisher–Yates over rng draws).
func shuffleSpecs(rng *sim.RNG, specs []workload.FlowSpec) {
	for i := len(specs) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		specs[i], specs[j] = specs[j], specs[i]
	}
}

// applyLinkEvent applies one lowered fault event: the edge's capacity
// becomes Factor × nominal. An up/down transition additionally toggles the
// edge's administrative state, repairs the routing table incrementally
// (only destination columns whose shortest-path DAG the edge touched), and
// moves flows — off a dead link if an alternative exists, back onto live
// paths for flows a restore just un-partitioned.
func (en *engine) applyLinkEvent(now sim.Time, ev faults.LinkEvent) {
	group := [1]faults.LinkEvent{ev}
	en.applyLinkEventGroup(now, group[:])
}

// activeEngine builds an engine over g with every spec arrived at t=0, the
// worst case for bottleneck-share ties.
func activeEngine(t testing.TB, g *topo.Graph, specs []workload.FlowSpec) *engine {
	t.Helper()
	en := newEngine(g)
	if err := en.addBatch(canonicalize(specs)); err != nil {
		t.Fatal(err)
	}
	for i := range en.flows {
		en.arrive([]int32{int32(i)}, 0)
	}
	return en
}

// checkMaxMin verifies the two invariants of a max-min fair allocation over
// the engine's current rates:
//
//  1. feasibility — no link carries more than its capacity, and
//  2. optimality — every flow is blocked by a bottleneck: some link on its
//     path is saturated and carries no flow faster than it, so the flow
//     cannot raise its rate without lowering a no-richer one.
func checkMaxMin(t *testing.T, en *engine) {
	t.Helper()
	const rel = 1e-6
	load := make([]float64, len(en.linkCap))
	for li, fids := range en.linkFlows {
		for _, fid := range fids {
			load[li] += en.flows[fid].rate
		}
		if load[li] > en.linkCap[li]*(1+rel) {
			t.Fatalf("link %d over capacity: %g > %g", li, load[li], en.linkCap[li])
		}
	}
	for fid := range en.flows {
		f := &en.flows[fid]
		if !f.active {
			continue
		}
		if f.rate <= 0 {
			// Rate 0 is legal only for a flow pinned by a failed link on
			// its path; max-min over positive capacities never starves.
			dead := false
			for _, li := range f.links {
				if en.linkCap[li] == 0 {
					dead = true
					break
				}
			}
			if !dead {
				t.Fatalf("flow %d starved (rate %g) with every path link live", fid, f.rate)
			}
			continue
		}
		bottlenecked := false
		for _, li := range f.links {
			if load[li] < en.linkCap[li]*(1-rel) {
				continue // unsaturated: not a bottleneck
			}
			fastest := 0.0
			for _, other := range en.linkFlows[li] {
				if r := en.flows[other].rate; r > fastest {
					fastest = r
				}
			}
			if f.rate >= fastest*(1-rel) {
				bottlenecked = true
				break
			}
		}
		if !bottlenecked {
			t.Fatalf("flow %d (rate %g) has no bottleneck link — allocation is not max-min", fid, f.rate)
		}
	}
}

// TestMaxMinInvariantProperty drives the solver over random workloads on
// tied-capacity fabrics (every link identical, so bottleneck shares tie
// constantly) and checks feasibility plus the max-min certificate, and that
// a shuffled copy of the same specs freezes to bit-identical rates.
func TestMaxMinInvariantProperty(t *testing.T) {
	prop := func(seed int64, sideRaw, flowsRaw uint8) bool {
		side := 3 + int(sideRaw)%3
		n := side * side
		flows := 2 + int(flowsRaw)%30
		rng := sim.NewRNG(seed)
		specs := make([]workload.FlowSpec, 0, flows)
		for len(specs) < flows {
			src, dst := rng.Intn(n), rng.Intn(n)
			if src == dst {
				continue
			}
			specs = append(specs, workload.FlowSpec{Src: src, Dst: dst, Bytes: 1e6})
		}
		g := topo.NewTorus(side, side, topo.Options{})
		en := activeEngine(t, g, specs)
		checkMaxMin(t, en)

		shuffled := append([]workload.FlowSpec(nil), specs...)
		shuffleSpecs(rng, shuffled)
		en2 := activeEngine(t, g, shuffled)
		for fid := range en.flows {
			if en.flows[fid].rate != en2.flows[fid].rate {
				t.Fatalf("flow %d rate depends on input order: %g vs %g",
					fid, en.flows[fid].rate, en2.flows[fid].rate)
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(17))}); err != nil {
		t.Fatal(err)
	}
}

// churnEngines drives a warm and a cold engine through the identical random
// interleaving of arrivals and completions — and, when maxFaults > 0,
// link capacity ops (down / up / degrade on random edges) — calling check
// after every event. A capacity op applies one event, or with maxFaults > 1
// 1..maxFaults events on distinct edges as one same-instant group. The interleaving deliberately drains and regrows
// components, so warm refills seed from non-zero previous allocations —
// arrivals into partially frozen neighborhoods, completions that split
// components — not just the monotone growth of a t=0 burst. When every
// active flow is starved behind downed links the walk heals the
// lowest-indexed dead edge (the role a fault schedule's repair events play
// in a real run) so it always terminates; it restores the shared graph's
// administrative state on exit.
//
// Each arrival op activates one flow, or with maxBatch > 1 a batch of
// 1..maxBatch flows at one instant. Batches then also drive a third, warm
// engine that takes the same flows in one-flow batches; its rate vector
// must equal the batched warm engine's bit for bit after every op. With
// batchDone (and maxBatch > 1), a completion op completes every flow due
// at its instant as one batch on the warm and cold engines, and the third
// engine completes the same flows one at a time at that instant.
//
// A flow's projected finish can fall behind the walk's op clock. With
// maxFaults > 1 or batchDone, the walk first completes every flow due
// before the op's instant, each at its own instant, as Session.advance
// would; this draws nothing from rng. The first two walk shapes leave such
// a flow overdue, so the committed inputs keep replaying the walks they
// were found on.
func churnEngines(t *testing.T, g *topo.Graph, specs []workload.FlowSpec, rng *sim.RNG, maxFaults, maxBatch int, batchDone bool, check func(warm, cold *engine)) {
	t.Helper()
	specs = canonicalize(specs)
	warm := newEngine(g)
	cold := newEngine(g)
	cold.cold = true
	engines := []*engine{warm, cold}
	var chain *engine
	if maxBatch > 1 {
		chain = newEngine(g)
		engines = append(engines, chain)
	}
	for _, en := range engines {
		if err := en.addBatch(specs); err != nil {
			t.Fatal(err)
		}
	}
	edges := g.Edges()
	factor := make([]float64, g.EdgeIndexBound())
	for i := range factor {
		factor[i] = 1
	}
	if maxFaults > 0 {
		defer func() {
			for _, e := range edges {
				e.SetEnabled(true)
			}
		}()
	}
	now := sim.Time(0)
	applyAll := func(now sim.Time, group []faults.LinkEvent) {
		for _, en := range engines {
			en.applyLinkEventGroup(now, group)
		}
		for _, ev := range group {
			factor[ev.Edge] = ev.Factor
		}
	}
	checkAll := func() {
		t.Helper()
		if chain != nil {
			for fid := range warm.flows {
				if b, c := warm.flows[fid].rate, chain.flows[fid].rate; b != c {
					t.Fatalf("at %v: flow %d batched rate %g != one-at-a-time rate %g", now, fid, b, c)
				}
			}
		}
		check(warm, cold)
	}
	var batch, coldBatch []int32
	nextDone := func() (sim.Time, int32) {
		t.Helper()
		wt, wid := warm.nextDone()
		ct, cid := cold.nextDone()
		if wt != ct || wid != cid {
			t.Fatalf("completion schedules diverged: warm (%v, %d) vs cold (%v, %d)", wt, wid, ct, cid)
		}
		return wt, wid
	}
	// completeAt completes flow wid, due first, at its instant at — or,
	// with batchDone, every flow due at it.
	completeAt := func(at sim.Time, wid int32) {
		t.Helper()
		if !batchDone {
			for _, en := range engines {
				en.complete([]int32{wid}, at)
			}
			return
		}
		batch = warm.popDue(at, batch[:0])
		coldBatch = cold.popDue(at, coldBatch[:0])
		if !slices.Equal(batch, coldBatch) {
			t.Fatalf("completion batches diverged at %v: warm %v vs cold %v", at, batch, coldBatch)
		}
		warm.complete(batch, at)
		cold.complete(coldBatch, at)
		for _, fid := range batch {
			chain.complete([]int32{fid}, at)
		}
	}
	var group []faults.LinkEvent
	arrived := 0
	for ops := 0; arrived < len(specs) || warm.activeCount > 0; ops++ {
		if ops > 100000 {
			t.Fatal("churn walk did not terminate")
		}
		now = now.Add(sim.Microsecond)
		for maxFaults > 1 || batchDone {
			wt, wid := nextDone()
			if wt >= now {
				break
			}
			completeAt(wt, wid)
			checkAll()
		}
		if arrived == len(specs) && warm.activeCount == 0 {
			break // the drain completed the last flows
		}
		if maxFaults > 0 && rng.Intn(4) == 0 {
			k := 1
			if maxFaults > 1 {
				k = 1 + rng.Intn(maxFaults)
			}
			group = group[:0]
			for ; k > 0; k-- {
				e := edges[rng.Intn(len(edges))]
				var f float64
				switch rng.Intn(3) {
				case 0:
					f = 0
				case 1:
					f = 1
				default:
					f = []float64{0.25, 0.5, 0.75}[rng.Intn(3)]
				}
				if !slices.ContainsFunc(group, func(ev faults.LinkEvent) bool { return ev.Edge == e.Index() }) {
					group = append(group, faults.LinkEvent{At: now, Edge: e.Index(), Factor: f})
				}
			}
			applyAll(now, group)
			checkAll()
			continue
		}
		// Bias toward arrivals while any remain, but complete often enough
		// that components shrink, split, and regrow mid-run.
		doArrive := arrived < len(specs) && (warm.activeCount == 0 || rng.Intn(3) != 0)
		if doArrive {
			k := 1
			if maxBatch > 1 {
				k = min(1+rng.Intn(maxBatch), len(specs)-arrived)
			}
			batch = batch[:0]
			for ; k > 0; k-- {
				batch = append(batch, int32(arrived))
				arrived++
			}
			warm.arrive(batch, now)
			cold.arrive(batch, now)
			if chain != nil {
				for _, fid := range batch {
					chain.arrive([]int32{fid}, now)
				}
			}
		} else {
			wt, wid := nextDone()
			if wid < 0 {
				// Every active flow is starved behind a dead link: heal the
				// lowest-indexed one and retry, as a repair event would.
				healed := false
				for li, f := range factor {
					if f == 0 {
						applyAll(now, []faults.LinkEvent{{At: now, Edge: li, Factor: 1}})
						healed = true
						break
					}
				}
				if !healed {
					t.Fatalf("active flows but no projected completion at %v and no dead link to heal", now)
				}
				checkAll()
				continue
			}
			if wt > now {
				now = wt
			}
			completeAt(now, wid)
		}
		checkAll()
	}
}

// TestWarmStartMatchesColdUnderChurn is the warm-start gate: after every
// arrival and completion of a random interleaved schedule, the warm engine's
// full rate vector must equal the cold engine's bit-for-bit, and both must
// satisfy the max-min certificate. This is the property FuzzSolverMaxMin
// explores further; the quick.Check here pins a broad deterministic sample
// of it into the ordinary test run.
func TestWarmStartMatchesColdUnderChurn(t *testing.T) {
	prop := func(seed int64, sideRaw, flowsRaw uint8) bool {
		side := 3 + int(sideRaw)%3
		n := side * side
		flows := 4 + int(flowsRaw)%40
		rng := sim.NewRNG(seed)
		specs := make([]workload.FlowSpec, 0, flows)
		for len(specs) < flows {
			src, dst := rng.Intn(n), rng.Intn(n)
			if src == dst {
				continue
			}
			specs = append(specs, workload.FlowSpec{
				Src: src, Dst: dst,
				Bytes: 100e3 + int64(rng.Intn(4))*450e3,
			})
		}
		g := topo.NewTorus(side, side, topo.Options{})
		events := 0
		churnEngines(t, g, specs, rng, 0, 1, false, func(warm, cold *engine) {
			events++
			for fid := range warm.flows {
				w, c := warm.flows[fid].rate, cold.flows[fid].rate
				if w != c {
					t.Fatalf("event %d: flow %d warm rate %g != cold rate %g", events, fid, w, c)
				}
			}
			checkMaxMin(t, warm)
		})
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(23))}); err != nil {
		t.Fatal(err)
	}
}

// TestWarmColdUnderFaultChurn extends the warm-start gate to capacity
// churn: the random walk now interleaves link down/up/degrade ops with
// arrivals and completions, and after every event the warm engine's rate
// vector must still equal the cold engine's bit for bit while both satisfy
// the max-min certificate (starved flows included). This is the property
// FuzzSolverMaxMin explores further.
func TestWarmColdUnderFaultChurn(t *testing.T) {
	prop := func(seed int64, sideRaw, flowsRaw uint8) bool {
		side := 3 + int(sideRaw)%3
		n := side * side
		flows := 4 + int(flowsRaw)%40
		rng := sim.NewRNG(seed)
		specs := make([]workload.FlowSpec, 0, flows)
		for len(specs) < flows {
			src, dst := rng.Intn(n), rng.Intn(n)
			if src == dst {
				continue
			}
			specs = append(specs, workload.FlowSpec{
				Src: src, Dst: dst,
				Bytes: 100e3 + int64(rng.Intn(4))*450e3,
			})
		}
		g := topo.NewTorus(side, side, topo.Options{})
		events := 0
		churnEngines(t, g, specs, rng, 1, 1, false, func(warm, cold *engine) {
			events++
			for fid := range warm.flows {
				w, c := warm.flows[fid].rate, cold.flows[fid].rate
				if w != c {
					t.Fatalf("event %d: flow %d warm rate %g != cold rate %g", events, fid, w, c)
				}
			}
			checkMaxMin(t, warm)
		})
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(29))}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkFluidAllocate measures one incremental re-solve in isolation: a
// 256-node torus with a full permutation active, re-filling the component
// around one flow's path per iteration (the exact work an arrival or
// completion triggers). The warm arm is the default engine — the steady
// state where the previous allocation replays as an oracle — and the cold
// arm forces the from-zero progressive fill for comparison. The capacity
// arm is the fault subsystem's hot path: one link capacity change
// (alternating degrade/restore, no topology transition) re-solved through
// the same oracle.
func BenchmarkFluidAllocate(b *testing.B) {
	for _, arm := range []struct {
		name string
		cold bool
	}{{"warm", false}, {"cold", true}} {
		b.Run(arm.name, func(b *testing.B) {
			g := topo.NewTorus(16, 16, topo.Options{})
			rng := sim.NewRNG(3)
			specs := workload.Permutation(rng, 256, workload.Fixed(1e6))
			en := activeEngine(b, g, specs)
			en.cold = arm.cold
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f := &en.flows[i%len(en.flows)]
				en.refill(0, f.links, -1)
			}
		})
	}
	b.Run("capacity", func(b *testing.B) {
		g := topo.NewTorus(16, 16, topo.Options{})
		rng := sim.NewRNG(3)
		specs := workload.Permutation(rng, 256, workload.Fixed(1e6))
		en := activeEngine(b, g, specs)
		li := en.flows[0].links[0] // a loaded link
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			factor := 1.0
			if i&1 == 0 {
				factor = 0.5
			}
			en.applyLinkEvent(0, faults.LinkEvent{Edge: int(li), Factor: factor})
			en.compactDone() // as Run does after every event; bounds the heap
		}
	})
}

// TestMergeFallbackFillOnce pins the chronology-merge replay: a component
// merge whose oracle entries were stamped by different fills reconstructs
// the merged round schedule by rate (each part's own chronology preserved
// via the seq tie-break) and replays warm — zero fallbacks through the
// merge, never a ColdFill. The pre-merge arrivals also replay warm: an
// empty-oracle fill is the trivial schedule, driven entirely by the live
// seed-link minimum with the newcomer absorbed. B arrives 1 ns after A:
// same-instant arrivals share one fill, and the merge needs two.
func TestMergeFallbackFillOnce(t *testing.T) {
	g := topo.NewLine(7, topo.Options{})
	specs := []workload.FlowSpec{
		{Src: 0, Dst: 1, Bytes: 1e6, At: 0, Label: "A"},
		{Src: 5, Dst: 6, Bytes: 2e6, At: 1 * sim.Time(sim.Nanosecond), Label: "B"},
		// C spans the whole line, merging A's and B's disjoint components.
		{Src: 0, Dst: 6, Bytes: 1e6, At: 1 * sim.Time(sim.Microsecond), Label: "C"},
	}
	s, err := NewSession(Config{Graph: g}, specs)
	if err != nil {
		t.Fatal(err)
	}
	// Advance to just before the merge: A and B each arrived into an empty
	// component — two trivial warm replays, nothing cold, no fallback.
	if err := s.Advance(999 * sim.Time(sim.Nanosecond)); err != nil {
		t.Fatal(err)
	}
	pre := s.Snapshot().Solver
	if want := (SolverStats{WarmHits: 2}); pre != want {
		t.Fatalf("solver stats before the merge = %+v, want %+v", pre, want)
	}
	// C's arrival merges the two components. Their oracle entries carry two
	// different fill stamps, but each part's levels ascend in its own freeze
	// order, so the rate-sorted union is a valid merged schedule; A and B —
	// flows whose every link is on C's (seed) path — are absorbed at the
	// new shared level rather than killing the schedule. Zero fallbacks.
	if err := s.Advance(1 * sim.Time(sim.Microsecond)); err != nil {
		t.Fatal(err)
	}
	if got := s.en.activeCount; got != 3 {
		t.Fatalf("want 3 active flows after the merge arrival, got %d", got)
	}
	mid := s.Snapshot().Solver
	if want := (SolverStats{WarmHits: 3}); mid != want {
		t.Errorf("solver stats after merge arrival = %+v, want %+v (the merge replays warm)", mid, want)
	}

	if err := s.AdvanceUntilDone(sim.Forever); err != nil {
		t.Fatal(err)
	}
	fin := s.Snapshot().Solver
	if fin.ColdFills != 0 {
		t.Errorf("merged components went cold %d times, want 0 (warm path throughout)", fin.ColdFills)
	}
	// Completions: A departs (C replays at its old shared level off the
	// merged fill's schedule — a hit), then C departs (B's rate must RISE
	// to the full link, which no replay of old levels can produce — the
	// run's lone legitimate fallback), then B empties its component
	// (counted as neither).
	if want := (SolverStats{WarmHits: 4, WarmFallbacks: 1}); fin != want {
		t.Errorf("final solver stats = %+v, want %+v", fin, want)
	}
}

// TestSameInstantArrivalsOneFill: arrivals due at one instant activate as
// one batch and share one refill. On a line 0–1–2 with 0→1, 0→2 and 1→2
// active, 0→2 and 1→2 arrive together. One flow at a time, the second
// arrival's fill would take the 0→1 flow from c/2 to c/3 and the third's
// back to c/2 within the instant. The batch counts one fill for the
// instant and leaves every rate, and every FlowResult of the drained run,
// equal to an engine fed the same flows in one-flow batches.
func TestSameInstantArrivalsOneFill(t *testing.T) {
	g := topo.NewLine(3, topo.Options{})
	at := sim.Time(sim.Microsecond)
	specs := []workload.FlowSpec{
		{Src: 0, Dst: 1, Bytes: 1e6},
		{Src: 0, Dst: 2, Bytes: 1e6},
		{Src: 1, Dst: 2, Bytes: 1e6},
		{Src: 0, Dst: 2, Bytes: 1e6, At: at},
		{Src: 1, Dst: 2, Bytes: 1e6, At: at},
	}
	fills := func(st SolverStats) int64 { return st.WarmHits + st.WarmFallbacks + st.ColdFills }

	s, err := NewSession(Config{Graph: g}, specs)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Advance(at - 1); err != nil {
		t.Fatal(err)
	}
	before := fills(s.Snapshot().Solver)
	if err := s.Advance(at); err != nil {
		t.Fatal(err)
	}
	if got := fills(s.Snapshot().Solver) - before; got != 1 {
		t.Fatalf("the instant's two arrivals ran %d fills, want 1", got)
	}

	// The reference takes the same canonical flows one at a time.
	ref := newEngine(g)
	if err := ref.addBatch(canonicalize(specs)); err != nil {
		t.Fatal(err)
	}
	for fid := int32(0); fid < 3; fid++ {
		ref.arrive([]int32{fid}, 0)
	}
	c := ref.linkCap[ref.flows[0].links[0]]
	var path []float64
	for fid := int32(3); fid < 5; fid++ {
		ref.arrive([]int32{fid}, at)
		path = append(path, ref.flows[0].rate)
	}
	if path[0] != c/3 || path[1] != c/2 {
		t.Fatalf("one at a time, the 0→1 flow went to %v within the instant, want [c/3 c/2] with c = %g", path, c)
	}
	for fid := range ref.flows {
		if b, r := s.en.flows[fid].rate, ref.flows[fid].rate; b != r {
			t.Errorf("flow %d: batched rate %g != one-at-a-time rate %g", fid, b, r)
		}
	}

	if err := s.AdvanceUntilDone(sim.Forever); err != nil {
		t.Fatal(err)
	}
	var want []FlowResult
	for ref.activeCount > 0 {
		done, fid := ref.nextDone()
		ref.complete([]int32{fid}, done)
		want = append(want, ref.result(fid, done))
	}
	if got := s.Snapshot().Flows; !slices.Equal(got, want) {
		t.Errorf("batched results %+v\nwant one-at-a-time %+v", got, want)
	}
}

// TestSameInstantCompletionsOneFill: completions due at one instant
// complete as one batch and share one refill. On one link, two equal flows
// and a larger third run at c/3 each, so the two finish together. One flow
// at a time, the first completion's fill would take the third flow to c/2
// and the second's to c within the instant. The batch counts one fill for
// the instant and leaves every rate, and every FlowResult of the drained
// run, equal to an engine that completes the flows one at a time.
func TestSameInstantCompletionsOneFill(t *testing.T) {
	g := topo.NewLine(2, topo.Options{})
	specs := []workload.FlowSpec{
		{Src: 0, Dst: 1, Bytes: 1e6, Label: "a"},
		{Src: 0, Dst: 1, Bytes: 1e6, Label: "b"},
		{Src: 0, Dst: 1, Bytes: 3e6, Label: "c"},
	}
	fills := func(st SolverStats) int64 { return st.WarmHits + st.WarmFallbacks + st.ColdFills }

	// The reference completes the same canonical flows one at a time.
	ref := newEngine(g)
	if err := ref.addBatch(canonicalize(specs)); err != nil {
		t.Fatal(err)
	}
	ref.arrive([]int32{0, 1, 2}, 0)
	c := ref.linkCap[ref.flows[0].links[0]]
	path := []float64{ref.flows[2].rate}
	var want []FlowResult
	var refRates []float64 // every flow's rate once the instant is over
	var at sim.Time
	for ref.activeCount > 0 {
		done, fid := ref.nextDone()
		if len(want) == 0 {
			at = done
		}
		ref.complete([]int32{fid}, done)
		want = append(want, ref.result(fid, done))
		if done == at {
			path = append(path, ref.flows[2].rate)
			refRates = refRates[:0]
			for i := range ref.flows {
				refRates = append(refRates, ref.flows[i].rate)
			}
		}
	}
	if !slices.Equal(path, []float64{c / 3, c / 2, c}) {
		t.Fatalf("one at a time, the third flow went %v within the instant, want [c/3 c/2 c] with c = %g", path, c)
	}

	s, err := NewSession(Config{Graph: g}, specs)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Advance(at - 1); err != nil {
		t.Fatal(err)
	}
	before := fills(s.Snapshot().Solver)
	if err := s.Advance(at); err != nil {
		t.Fatal(err)
	}
	if got := fills(s.Snapshot().Solver) - before; got != 1 {
		t.Fatalf("the instant's two completions ran %d fills, want 1", got)
	}
	if got := s.Remaining(); got != 1 {
		t.Fatalf("%d flows left after the instant, want 1", got)
	}
	for fid, r := range refRates {
		if b := s.en.flows[fid].rate; b != r {
			t.Errorf("flow %d: batched rate %g != one-at-a-time rate %g", fid, b, r)
		}
	}

	if err := s.AdvanceUntilDone(sim.Forever); err != nil {
		t.Fatal(err)
	}
	if got := s.Snapshot().Flows; !slices.Equal(got, want) {
		t.Errorf("batched results %+v\nwant one-at-a-time %+v", got, want)
	}
}
