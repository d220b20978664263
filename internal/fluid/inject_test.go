package fluid

import (
	"slices"
	"testing"

	"rackfab/internal/faults"
	"rackfab/internal/sim"
	"rackfab/internal/topo"
	"rackfab/internal/workload"
)

// injectBatch2 is the second service batch for the mid-run Inject tests:
// absolute At instants, interleaving with sessionSpecs arrivals still
// pending at the 15µs injection point.
func injectBatch2() []workload.FlowSpec {
	return []workload.FlowSpec{
		{Src: 2, Dst: 14, Bytes: 300e3, At: 45 * sim.Time(sim.Microsecond), Label: "g"},
		{Src: 7, Dst: 4, Bytes: 120e3, At: 18 * sim.Time(sim.Microsecond), Label: "h"},
	}
}

// stepSession advances s in 7µs chunks to completion.
func stepSession(t *testing.T, s *Session) {
	t.Helper()
	step := 7 * sim.Time(sim.Microsecond)
	for until := step; !s.Done(); until += step {
		if err := s.Advance(until); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSessionInjectMatchesUpfront: a batch injected mid-run must reproduce,
// byte for byte, the run that knew every spec up front — flow IDs are
// batch-major rather than globally canonical, but the event chronology (and
// with it every solver operation) is identical.
func TestSessionInjectMatchesUpfront(t *testing.T) {
	for _, faulted := range []bool{false, true} {
		name := "fault-free"
		if faulted {
			name = "faulted"
		}
		t.Run(name, func(t *testing.T) {
			mkSched := func(g *topo.Graph) *faults.Schedule {
				if !faulted {
					return nil
				}
				e, ok := g.EdgeBetween(9, 10)
				if !ok {
					t.Fatal("missing edge 9-10")
				}
				return faults.New(
					faults.Event{At: 30 * sim.Time(sim.Microsecond), Target: e.Index(), Kind: faults.LinkDown},
					faults.Event{At: 200 * sim.Time(sim.Microsecond), Target: e.Index(), Kind: faults.LinkUp},
				)
			}

			g1 := topo.NewGrid(4, 4, topo.Options{})
			union := append(append([]workload.FlowSpec{}, sessionSpecs()...), injectBatch2()...)
			want, err := Run(Config{Graph: g1, Faults: mkSched(g1)}, union)
			if err != nil {
				t.Fatal(err)
			}

			g2 := topo.NewGrid(4, 4, topo.Options{})
			s, err := NewSession(Config{Graph: g2, Faults: mkSched(g2)}, sessionSpecs())
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Advance(15 * sim.Time(sim.Microsecond)); err != nil {
				t.Fatal(err)
			}
			orderBefore := append([]int{}, s.Order()...)
			ids, err := s.Inject(injectBatch2())
			if err != nil {
				t.Fatal(err)
			}
			// Batch-major IDs: the first batch's handles never renumber, and
			// the new batch gets base + canonical position within itself
			// (h@18µs precedes g@45µs).
			for i, id := range s.Order() {
				if id != orderBefore[i] {
					t.Fatalf("Inject renumbered earlier handle %d: %d -> %d", i, orderBefore[i], id)
				}
			}
			if len(ids) != 2 || ids[0] != 7 || ids[1] != 6 {
				t.Fatalf("batch-major IDs = %v, want [7 6]", ids)
			}
			stepSession(t, s)
			got := s.Snapshot()
			if a, b := resultFingerprint(want), resultFingerprint(got); a != b {
				t.Fatalf("injected run diverged from upfront run:\n--- upfront ---\n%s--- injected ---\n%s", a, b)
			}
			// The injected handles resolve to their own flows.
			for i, spec := range injectBatch2() {
				st := s.FlowStatus(ids[i])
				if !st.Done {
					t.Fatalf("injected flow %q not done", spec.Label)
				}
				found := false
				for _, fr := range want.Flows {
					if fr.Spec.Label == spec.Label && fr.Start == st.Start && fr.FCT == st.FCT {
						found = true
						break
					}
				}
				if !found {
					t.Fatalf("injected flow %q status %+v matches no upfront row", spec.Label, st)
				}
			}
		})
	}
}

// TestSessionRetireBitIdentical: draining completions and prefix-retiring
// flow state mid-run must leave the remaining computation bit-identical to a
// session that never retires — the uniform ID rebase preserves every solver
// ordering.
func TestSessionRetireBitIdentical(t *testing.T) {
	run := func(retire bool) (string, int, int) {
		g := topo.NewGrid(4, 4, topo.Options{})
		s, err := NewSession(Config{Graph: g}, sessionSpecs())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Inject(injectBatch2()); err != nil {
			t.Fatal(err)
		}
		var drained []FlowResult
		peakRetained := s.RetainedFlows()
		step := 7 * sim.Time(sim.Microsecond)
		for until := step; !s.Done(); until += step {
			if err := s.Advance(until); err != nil {
				t.Fatal(err)
			}
			if retire {
				drained = append(drained, s.TakeCompleted()...)
				s.Retire()
			}
			if r := s.RetainedFlows(); r > peakRetained {
				peakRetained = r
			}
		}
		snap := s.Snapshot()
		res := &Result{
			Flows:  append(drained, snap.Flows...),
			Events: snap.Events,
			Solver: snap.Solver,
			Faults: snap.Faults,
		}
		return resultFingerprint(res), s.Retired(), peakRetained
	}

	plain, retired0, _ := run(false)
	retiredFP, retired, peak := run(true)
	if retired0 != 0 {
		t.Fatalf("unretiring run reported %d retired flows", retired0)
	}
	if plain != retiredFP {
		t.Fatalf("retiring run diverged:\n--- plain ---\n%s--- retired ---\n%s", plain, retiredFP)
	}
	if retired != 8 {
		t.Fatalf("retired %d of 8 flows", retired)
	}
	if peak > 8 {
		t.Fatalf("retained peak %d exceeds total", peak)
	}

	// Old public IDs remain valid handles after full retirement, and a
	// post-retire Inject continues the batch-major ID space.
	g := topo.NewGrid(4, 4, topo.Options{})
	s, err := NewSession(Config{Graph: g}, sessionSpecs())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Advance(sim.Time(sim.Second)); err != nil {
		t.Fatal(err)
	}
	s.TakeCompleted()
	if got := s.Retire(); got != 6 {
		t.Fatalf("retired %d of 6 flows", got)
	}
	if s.RetainedFlows() != 0 {
		t.Fatalf("retained %d flows after full retire", s.RetainedFlows())
	}
	if st := s.FlowStatus(0); !st.Done {
		t.Fatal("retired handle 0 no longer reports Done")
	}
	late := []workload.FlowSpec{{Src: 0, Dst: 3, Bytes: 10e3, At: sim.Time(2 * sim.Second), Label: "late"}}
	ids, err := s.Inject(late)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1 || ids[0] != 6 {
		t.Fatalf("post-retire IDs = %v, want [6]", ids)
	}
	if err := s.Advance(sim.Time(3 * sim.Second)); err != nil {
		t.Fatal(err)
	}
	if st := s.FlowStatus(ids[0]); !st.Done || st.Start != sim.Time(2*sim.Second) {
		t.Fatalf("late flow status %+v", st)
	}
}

// TestSessionInjectUnreachableParks: a batch injected while its destination
// is partitioned must not error — the flow parks at rate 0 and completes
// once the link heals.
func TestSessionInjectUnreachableParks(t *testing.T) {
	g := topo.NewLine(3, topo.Options{})
	mid, ok := g.EdgeBetween(1, 2)
	if !ok {
		t.Fatal("missing edge 1-2")
	}
	sched := faults.New(
		faults.Event{At: 10 * sim.Time(sim.Microsecond), Target: mid.Index(), Kind: faults.LinkDown},
		faults.Event{At: 100 * sim.Time(sim.Microsecond), Target: mid.Index(), Kind: faults.LinkUp},
	)
	s, err := NewSession(Config{Graph: g, Faults: sched}, []workload.FlowSpec{
		{Src: 0, Dst: 1, Bytes: 10e3, At: 0, Label: "keepalive"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Advance(20 * sim.Time(sim.Microsecond)); err != nil {
		t.Fatal(err)
	}
	ids, err := s.Inject([]workload.FlowSpec{
		{Src: 0, Dst: 2, Bytes: 10e3, At: 30 * sim.Time(sim.Microsecond), Label: "parked"},
	})
	if err != nil {
		t.Fatalf("Inject during partition: %v", err)
	}
	if err := s.Advance(50 * sim.Time(sim.Microsecond)); err != nil {
		t.Fatal(err)
	}
	if st := s.FlowStatus(ids[0]); st.Done {
		t.Fatal("parked flow completed across a partition")
	}
	if err := s.Advance(sim.Time(sim.Second)); err != nil {
		t.Fatal(err)
	}
	st := s.FlowStatus(ids[0])
	if !st.Done {
		t.Fatal("parked flow never completed after the heal")
	}
	if fr := s.Snapshot().Flows; len(fr) != 2 || fr[1].Spec.Label != "parked" || fr[1].Hops != 2 {
		t.Fatalf("completions %+v, want the parked flow last, with 2 hops", fr)
	}
	s.RestoreGraph()
}

// TestTakeCompletedValidUntilNextTake holds TakeCompleted to its window: a
// result stays intact while the session advances and completes more flows,
// and the records taken one window at a time are Run's, in Run's order.
func TestTakeCompletedValidUntilNextTake(t *testing.T) {
	g := topo.NewGrid(4, 4, topo.Options{})
	want, err := Run(Config{Graph: g}, sessionSpecs())
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(Config{Graph: g}, sessionSpecs())
	if err != nil {
		t.Fatal(err)
	}
	// Take only once new records exist, so every held result outlives at
	// least one completion.
	var taken []FlowResult
	var held, heldCopy []FlowResult
	crossed := 0
	step := 7 * sim.Time(sim.Microsecond)
	for until := step; !s.Done(); until += step {
		if err := s.Advance(until); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(held, heldCopy) {
			t.Fatalf("at %v: the last TakeCompleted result changed before the next Take:\n got %v\nwant %v", until, held, heldCopy)
		}
		if s.Totals().Completed == int64(len(taken)) {
			continue
		}
		if len(held) > 0 {
			crossed++
		}
		held = s.TakeCompleted()
		heldCopy = slices.Clone(held)
		taken = append(taken, held...)
	}
	if crossed == 0 {
		t.Fatal("no held result outlived a completion: the window went untested")
	}
	if got := resultFingerprint(&Result{Flows: taken}); got != resultFingerprint(&Result{Flows: want.Flows}) {
		t.Fatalf("taken records differ from Run's:\n--- taken ---\n%s--- run ---\n%s", got, resultFingerprint(&Result{Flows: want.Flows}))
	}
}

// TestInjectAfterRetireStartsNotDone: Retire compacts the status table in
// place, which leaves the retired flows' Done records past its end. Flows
// injected after it must not inherit them: each reads not Done, and a
// further Retire cuts none of them.
func TestInjectAfterRetireStartsNotDone(t *testing.T) {
	g := topo.NewGrid(4, 4, topo.Options{})
	s, err := NewSession(Config{Graph: g}, sessionSpecs())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Advance(sim.Time(sim.Second)); err != nil {
		t.Fatal(err)
	}
	s.TakeCompleted()
	if got := s.Retire(); got != len(sessionSpecs()) {
		t.Fatalf("retired %d of %d flows", got, len(sessionSpecs()))
	}
	late := []workload.FlowSpec{
		{Src: 0, Dst: 3, Bytes: 10e3, At: sim.Time(2 * sim.Second), Label: "x"},
		{Src: 4, Dst: 9, Bytes: 20e3, At: sim.Time(2 * sim.Second), Label: "y"},
		{Src: 14, Dst: 1, Bytes: 30e3, At: sim.Time(2 * sim.Second), Label: "z"},
	}
	ids, err := s.Inject(late)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if s.FlowStatus(id).Done {
			t.Fatalf("flow %d injected after a Retire reads Done before it arrived", id)
		}
	}
	if got := s.Retire(); got != 0 {
		t.Fatalf("a Retire before the new flows arrive cut %d of them", got)
	}
	if got := s.RetainedFlows(); got != len(late) {
		t.Fatalf("retained %d flows, want %d", got, len(late))
	}
	if err := s.Advance(sim.Time(3 * sim.Second)); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if !s.FlowStatus(id).Done {
			t.Fatalf("flow %d unfinished", id)
		}
	}
	if got := s.Retire(); got != len(late) {
		t.Fatalf("retired %d of %d late flows", got, len(late))
	}
}
