package fluid

import (
	"fmt"
	"testing"

	"rackfab/internal/faults"
	"rackfab/internal/sim"
	"rackfab/internal/topo"
	"rackfab/internal/workload"
)

// fingerprint renders every byte of a Result that could expose
// nondeterminism: the full flow list in completion order plus aggregates.
// Solver is masked — warm and cold runs produce bit-identical allocations
// by design while necessarily reporting opposite hit/fill mixes.
func fingerprint(r *Result) string {
	c := *r
	c.Solver = SolverStats{}
	return fmt.Sprintf("%+v", c)
}

// TestTiedCompletionOrderDeterministic is the regression test for the old
// `for f := range active` nextDone scan: two flows that are identical except
// for their label finish at the same instant, and map iteration used to
// order Result.Flows arbitrarily between runs. The heap's (time, flowID)
// tie-break must order them canonically, every run.
func TestTiedCompletionOrderDeterministic(t *testing.T) {
	g := topo.NewLine(2, topo.Options{})
	specs := []workload.FlowSpec{
		{Src: 0, Dst: 1, Bytes: 10e6, Label: "tie-b"},
		{Src: 0, Dst: 1, Bytes: 10e6, Label: "tie-a"},
	}
	var want string
	for i := 0; i < 20; i++ {
		res, err := Run(Config{Graph: g}, specs)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Flows) != 2 || res.Flows[0].FCT != res.Flows[1].FCT {
			t.Fatalf("run %d: want two flows tied on FCT, got %+v", i, res.Flows)
		}
		// Canonical spec order sorts "tie-a" before "tie-b".
		if res.Flows[0].Spec.Label != "tie-a" {
			t.Fatalf("run %d: tied completions out of canonical order: %q first", i, res.Flows[0].Spec.Label)
		}
		got := fingerprint(res)
		if i == 0 {
			want = got
		} else if got != want {
			t.Fatalf("run %d diverged:\n--- first ---\n%s\n--- now ---\n%s", i, want, got)
		}
	}
}

// TestShuffledInputFingerprint checks run-order independence: the same spec
// multiset, handed to Run in any order, must produce a byte-identical
// Result — on the warm-start path AND with warm start disabled, and the two
// must agree with each other to the byte. The permutation workload (every
// arrival at t=0, identical sizes, uniform capacities) maximizes both
// completion-time and bottleneck-share ties; the uniform workload adds
// staggered arrivals; the churn workload staggers arrivals far enough
// apart that completions interleave them, so warm refills constantly seed
// from non-zero allocations — the arrival-into-drained-component and
// completion-splits-component paths a t=0 burst never exercises; and the
// faulted case replays the uniform workload under a link-flap schedule, so
// shuffles must also commute with mid-run rerouting, starvation, and
// repair.
func TestShuffledInputFingerprint(t *testing.T) {
	flapped := faults.New(
		faults.Event{At: 20 * sim.Time(sim.Microsecond), Target: 17, Kind: faults.LinkDown},
		faults.Event{At: 55 * sim.Time(sim.Microsecond), Target: 3, Kind: faults.Degrade, Frac: 0.5},
		faults.Event{At: 140 * sim.Time(sim.Microsecond), Target: 17, Kind: faults.LinkUp},
		faults.Event{At: 200 * sim.Time(sim.Microsecond), Target: 3, Kind: faults.LinkUp},
	)
	cases := []struct {
		name  string
		specs []workload.FlowSpec
		sched *faults.Schedule
	}{
		{"permutation", workload.Permutation(sim.NewRNG(7), 36, workload.Fixed(1e6)), nil},
		{"uniform", workload.Uniform(sim.NewRNG(8), workload.UniformConfig{
			Nodes: 36, Flows: 60,
			Size:             workload.Fixed(500e3),
			MeanInterarrival: 5 * sim.Microsecond,
		}), nil},
		{"churn", workload.Uniform(sim.NewRNG(9), workload.UniformConfig{
			Nodes: 36, Flows: 80,
			Size:             workload.Pareto{Alpha: 1.5, MinBytes: 40e3, MaxBytes: 4e6},
			MeanInterarrival: 40 * sim.Microsecond,
		}), nil},
		{"faulted", workload.Uniform(sim.NewRNG(8), workload.UniformConfig{
			Nodes: 36, Flows: 60,
			Size:             workload.Fixed(500e3),
			MeanInterarrival: 5 * sim.Microsecond,
		}), flapped},
	}
	for _, tc := range cases {
		name, specs, sched := tc.name, tc.specs, tc.sched
		t.Run(name, func(t *testing.T) {
			// Per-case RNG so every run — and every -run filter — replays
			// the exact same shuffles.
			rng := sim.NewRNG(int64(len(name)))
			g := topo.NewTorus(6, 6, topo.Options{})
			base, err := Run(Config{Graph: g, Faults: sched}, specs)
			if err != nil {
				t.Fatal(err)
			}
			want := fingerprint(base)
			cold, err := Run(Config{Graph: g, Faults: sched, coldStart: true}, specs)
			if err != nil {
				t.Fatal(err)
			}
			if got := fingerprint(cold); got != want {
				t.Fatalf("cold start diverged from warm start:\n--- warm ---\n%s\n--- cold ---\n%s", want, got)
			}
			shuffled := append([]workload.FlowSpec(nil), specs...)
			for trial := 0; trial < 4; trial++ {
				shuffleSpecs(rng, shuffled)
				for _, coldStart := range []bool{false, true} {
					res, err := Run(Config{Graph: g, Faults: sched, coldStart: coldStart}, shuffled)
					if err != nil {
						t.Fatal(err)
					}
					if got := fingerprint(res); got != want {
						t.Fatalf("shuffle %d (coldStart=%v) changed the result:\n--- canonical ---\n%s\n--- shuffled ---\n%s", trial, coldStart, want, got)
					}
				}
			}
		})
	}
}
