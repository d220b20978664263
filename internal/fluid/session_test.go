package fluid

import (
	"fmt"
	"math"
	"testing"

	"rackfab/internal/faults"
	"rackfab/internal/sim"
	"rackfab/internal/topo"
	"rackfab/internal/workload"
)

// sessionSpecs is a shared mix with staggered arrivals and shared paths so
// chunk boundaries land mid-traffic.
func sessionSpecs() []workload.FlowSpec {
	return []workload.FlowSpec{
		{Src: 0, Dst: 5, Bytes: 50e3, At: 0, Label: "a"},
		{Src: 3, Dst: 6, Bytes: 100e3, At: 20 * sim.Time(sim.Microsecond), Label: "b"},
		{Src: 12, Dst: 9, Bytes: 200e3, At: 40 * sim.Time(sim.Microsecond), Label: "c"},
		{Src: 15, Dst: 10, Bytes: 400e3, At: 10 * sim.Time(sim.Microsecond), Label: "d"},
		{Src: 1, Dst: 13, Bytes: 800e3, At: 30 * sim.Time(sim.Microsecond), Label: "e"},
		{Src: 8, Dst: 11, Bytes: 1600e3, At: 25 * sim.Time(sim.Microsecond), Label: "f"},
	}
}

func resultFingerprint(res *Result) string {
	s := fmt.Sprintf("events=%d solver=%+v faults=%+v\n", res.Events, res.Solver, res.Faults)
	for _, f := range res.Flows {
		s += fmt.Sprintf("%s %d %d %d %d\n", f.Spec.Label, f.Spec.Bytes, int64(f.Start), int64(f.FCT), f.Hops)
	}
	return s
}

// TestSessionMatchesRun holds the stepped Session bit-equal to the one-shot
// Run: the same scenario advanced in many small chunks must reproduce every
// flow result and counter Run produces — fault-free and under a link flap +
// node pulse schedule.
func TestSessionMatchesRun(t *testing.T) {
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
					faults.Event{At: 80 * sim.Time(sim.Microsecond), Target: 6, Kind: faults.NodeDown},
					faults.Event{At: 120 * sim.Time(sim.Microsecond), Target: 6, Kind: faults.NodeUp},
				)
			}

			g1 := topo.NewGrid(4, 4, topo.Options{})
			want, err := Run(Config{Graph: g1, Faults: mkSched(g1)}, sessionSpecs())
			if err != nil {
				t.Fatal(err)
			}

			g2 := topo.NewGrid(4, 4, topo.Options{})
			s, err := NewSession(Config{Graph: g2, Faults: mkSched(g2)}, sessionSpecs())
			if err != nil {
				t.Fatal(err)
			}
			step := 7 * sim.Time(sim.Microsecond)
			for until := step; !s.Done(); until += step {
				if err := s.Advance(until); err != nil {
					t.Fatal(err)
				}
				if s.Now() != until {
					t.Fatalf("clock %v after Advance(%v)", s.Now(), until)
				}
			}
			got := s.Snapshot()
			if a, b := resultFingerprint(want), resultFingerprint(got); a != b {
				t.Fatalf("stepped session diverged from Run:\n--- run ---\n%s--- session ---\n%s", a, b)
			}

			// FlowStatus must agree with the result rows through Order.
			order := s.Order()
			specs := sessionSpecs()
			for i, spec := range specs {
				st := s.FlowStatus(order[i])
				if !st.Done {
					t.Fatalf("flow %q not done after completion", spec.Label)
				}
				found := false
				for _, fr := range want.Flows {
					if fr.Spec.Label == spec.Label && fr.Start == st.Start && fr.FCT == st.FCT {
						found = true
						break
					}
				}
				if !found {
					t.Fatalf("flow %q status %+v matches no Run result row", spec.Label, st)
				}
			}
		})
	}
}

// TestSessionMatchesRunMultiBatch is the service-mode arm: a session that
// receives a second batch mid-run must be invariant to how the surrounding
// time is sliced — many 7µs Advances against a single AdvanceUntilDone, with
// the Inject at the same instant, produce byte-identical results. (The
// injected-vs-upfront-Run equivalence is TestSessionInjectMatchesUpfront.)
func TestSessionMatchesRunMultiBatch(t *testing.T) {
	inject := injectBatch2()
	injectAt := 15 * sim.Time(sim.Microsecond)
	run := func(stepped bool) string {
		g := topo.NewGrid(4, 4, topo.Options{})
		s, err := NewSession(Config{Graph: g}, sessionSpecs())
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Advance(injectAt); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Inject(inject); err != nil {
			t.Fatal(err)
		}
		if stepped {
			step := 7 * sim.Time(sim.Microsecond)
			for until := injectAt + step; !s.Done(); until += step {
				if err := s.Advance(until); err != nil {
					t.Fatal(err)
				}
			}
		} else if err := s.AdvanceUntilDone(sim.Forever); err != nil {
			t.Fatal(err)
		}
		return resultFingerprint(s.Snapshot())
	}
	if a, b := run(true), run(false); a != b {
		t.Fatalf("multi-batch stepping diverged:\n--- stepped ---\n%s--- one-shot ---\n%s", a, b)
	}
}

// TestSessionOrderIsInputInvariant: the Order mapping must hand every input
// position the canonical ID of its spec regardless of input order.
func TestSessionOrderIsInputInvariant(t *testing.T) {
	g := topo.NewGrid(4, 4, topo.Options{})
	specs := sessionSpecs()
	fwd, err := NewSession(Config{Graph: g}, specs)
	if err != nil {
		t.Fatal(err)
	}
	rev := make([]workload.FlowSpec, len(specs))
	for i, s := range specs {
		rev[len(specs)-1-i] = s
	}
	back, err := NewSession(Config{Graph: g}, rev)
	if err != nil {
		t.Fatal(err)
	}
	for i := range specs {
		if fwd.Order()[i] != back.Order()[len(specs)-1-i] {
			t.Fatalf("canonical ID of spec %d depends on input order: %d vs %d",
				i, fwd.Order()[i], back.Order()[len(specs)-1-i])
		}
	}
}

// TestSessionAdvanceIdlesPastCompletion: advancing past the last event just
// moves the clock.
func TestSessionAdvanceIdlesPastCompletion(t *testing.T) {
	g := topo.NewGrid(4, 4, topo.Options{})
	s, err := NewSession(Config{Graph: g}, sessionSpecs()[:2])
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Advance(sim.Time(10 * sim.Second)); err != nil {
		t.Fatal(err)
	}
	if !s.Done() {
		t.Fatal("session not done")
	}
	if s.Now() != sim.Time(10*sim.Second) {
		t.Fatalf("clock %v, want 10s", s.Now())
	}
	if err := s.Advance(sim.Time(20 * sim.Second)); err != nil {
		t.Fatal(err)
	}
	if s.Now() != sim.Time(20*sim.Second) {
		t.Fatalf("idle advance left clock at %v", s.Now())
	}

	// AdvanceUntilDone must NOT idle forward: the clock stops at the last
	// completion, like the packet engine's RunUntilDone.
	s2, err := NewSession(Config{Graph: g}, sessionSpecs()[:2])
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.AdvanceUntilDone(sim.Time(10 * sim.Second)); err != nil {
		t.Fatal(err)
	}
	if !s2.Done() {
		t.Fatal("session not done")
	}
	if s2.Now() >= sim.Time(sim.Second) {
		t.Fatalf("AdvanceUntilDone idled the clock to %v", s2.Now())
	}
}

// TestApplyFaultsMergesLikeScheduleMerge: schedules handed to ApplyFaults
// one by one, at construction or mid-run, replay exactly what their
// faults.Schedule.Merge does: a later schedule's event goes after those
// already due at its instant, one applied after earlier events fired still
// replays in full, and an event behind the clock applies at the current
// instant.
func TestApplyFaultsMergesLikeScheduleMerge(t *testing.T) {
	g := topo.NewGrid(3, 3, topo.Options{})
	e, ok := g.EdgeBetween(0, 1)
	if !ok {
		t.Fatal("missing edge 0-1")
	}
	us := sim.Time(sim.Microsecond)
	event := func(at sim.Time, kind faults.Kind) *faults.Schedule {
		return faults.New(faults.Event{At: at, Target: e.Index(), Kind: kind})
	}
	down, up, heal := event(10*us, faults.LinkDown), event(10*us, faults.LinkUp), event(50*us, faults.LinkUp)
	specs := []workload.FlowSpec{{Src: 0, Dst: 1, Bytes: 1e6}, {Src: 0, Dst: 2, Bytes: 1e6}}
	run := func(sched *faults.Schedule) string {
		t.Helper()
		res, err := Run(Config{Graph: g, Faults: sched}, specs)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%+v", *res)
	}
	if run(down.Merge(up)) == run(up.Merge(down)) {
		t.Fatal("the tie order does not change the run, so this test cannot tell the merges apart")
	}
	for _, tc := range []struct {
		name         string
		first, later *faults.Schedule // first is Config.Faults
		before       sim.Time         // the session advances here before ApplyFaults(later)
		want         *faults.Schedule // Run under this must give the same Result
	}{
		{"tie at clock zero", down, up, 0, down.Merge(up)},
		{"tie mid-run", down, up, 10*us - 1, down.Merge(up)},
		{"after the first fired", down, heal, 20 * us, down.Merge(heal)},
		{"behind the clock", nil, down, 20 * us, event(20*us, faults.LinkDown)},
	} {
		s, err := NewSession(Config{Graph: g, Faults: tc.first}, specs)
		if err != nil {
			t.Fatal(err)
		}
		err = s.Advance(tc.before)
		if err == nil {
			err = s.ApplyFaults(tc.later)
		}
		if err == nil {
			err = s.Advance(sim.Forever)
		}
		s.RestoreGraph()
		if err != nil {
			t.Fatal(err)
		}
		if got, want := fmt.Sprintf("%+v", *s.finish()), run(tc.want); got != want {
			t.Fatalf("%s: ApplyFaults diverged from Run:\n--- Run ---\n%s\n--- ApplyFaults ---\n%s", tc.name, want, got)
		}
	}
}

// TestDistanceMatchesHopCounter holds Session.Distance, which reads the
// session's route table, to topo.HopCounter over the graph the session's
// faults left. On a 6×6 grid a LinkDown group cuts two links at 20 µs and
// a NodeDown group takes node 14 at 40 µs, while flows that neither start
// nor end at node 14 run across both. Every completed flow's count, and
// every pair's, must agree, an unreachable pair reading +Inf against -1.
func TestDistanceMatchesHopCounter(t *testing.T) {
	const us = sim.Time(sim.Microsecond)
	const lost = 14
	g := topo.NewGrid(6, 6, topo.Options{})
	var evs []faults.Event
	for _, p := range [][2]topo.NodeID{{2, 3}, {20, 26}} {
		e, ok := g.EdgeBetween(p[0], p[1])
		if !ok {
			t.Fatalf("missing edge %d-%d", p[0], p[1])
		}
		evs = append(evs, faults.Event{At: 20 * us, Target: e.Index(), Kind: faults.LinkDown})
	}
	evs = append(evs, faults.Event{At: 40 * us, Target: lost, Kind: faults.NodeDown})
	var specs []workload.FlowSpec
	for src := 0; src < g.NumNodes(); src++ {
		dst := (src*7 + 5) % g.NumNodes()
		if src != lost && dst != lost && src != dst {
			specs = append(specs, workload.FlowSpec{Src: src, Dst: dst, Bytes: 200e3, At: sim.Time(src) * us, Label: fmt.Sprint(src)})
		}
	}
	s, err := NewSession(Config{Graph: g, Faults: faults.New(evs...)}, specs)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AdvanceUntilDone(sim.Time(sim.Second)); err != nil {
		t.Fatal(err)
	}
	if tot := s.Totals(); tot.Completed != int64(len(specs)) || tot.Faults.CapacityEvents != 6 {
		t.Fatalf("%d of %d flows completed and %d capacity events applied; want all flows and 6 events", tot.Completed, len(specs), tot.Faults.CapacityEvents)
	}
	hc := g.NewHopCounter()
	check := func(src, dst int) {
		t.Helper()
		want := float64(hc.From(topo.NodeID(src))[dst])
		if want < 0 {
			want = math.Inf(1)
		}
		if got := s.Distance(src, dst); got != want {
			t.Fatalf("Distance(%d, %d) = %v, HopCounter %v", src, dst, got, want)
		}
	}
	for _, f := range s.Snapshot().Flows {
		check(f.Spec.Src, f.Spec.Dst)
	}
	healthy := topo.NewGrid(6, 6, topo.Options{}).NewHopCounter()
	longer := 0
	for src := 0; src < g.NumNodes(); src++ {
		for dst := 0; dst < g.NumNodes(); dst++ {
			check(src, dst)
			if hc.From(topo.NodeID(src))[dst] > healthy.From(topo.NodeID(src))[dst] {
				longer++
			}
		}
	}
	if longer == 0 {
		t.Fatal("the faults lengthened no pair's path")
	}
}
