package experiment

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"rackfab/internal/sim"
	"rackfab/internal/topo"
	"rackfab/internal/workload"
)

// sweepTrials returns n trials that each spin up a private sim engine,
// run a little event cascade, and return a value derived only from their
// index — the minimal shape of a real experiment trial.
func sweepTrials(n int) []Trial[int] {
	trials := make([]Trial[int], n)
	for i := range trials {
		trials[i] = Trial[int]{
			Name: fmt.Sprintf("t%d", i),
			Run: func() (int, error) {
				eng := sim.NewSized(256)
				sum := 0
				for k := 0; k < 20; k++ {
					eng.After(sim.Duration(k+1)*sim.Nanosecond, "tick", func() { sum += k })
				}
				if err := eng.Run(); err != nil {
					return 0, err
				}
				return i*1000 + sum, nil
			},
		}
	}
	return trials
}

// TestSweepWorkerCounts runs the same trial set at the edge-case worker
// counts — 0 (default: NumCPU), 1 (sequential path), NumCPU, and far more
// workers than trials — and requires identical, input-ordered results.
func TestSweepWorkerCounts(t *testing.T) {
	const n = 37
	want, err := Sweep(Config{Parallel: 1}, sweepTrials(n))
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range want {
		if v != i*1000+190 {
			t.Fatalf("sequential result[%d] = %d, want %d", i, v, i*1000+190)
		}
	}
	for _, parallel := range []int{0, 1, 2, runtime.NumCPU(), n, 4 * n} {
		got, err := Sweep(Config{Parallel: parallel}, sweepTrials(n))
		if err != nil {
			t.Fatalf("parallel=%d: %v", parallel, err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("parallel=%d: result[%d] = %d, want %d", parallel, i, got[i], want[i])
			}
		}
	}
}

// TestSweepEmptyAndSingle covers the degenerate inputs.
func TestSweepEmptyAndSingle(t *testing.T) {
	if res, err := Sweep[int](Config{Parallel: 8}, nil); err != nil || len(res) != 0 {
		t.Fatalf("empty sweep: res=%v err=%v", res, err)
	}
	res, err := Sweep(Config{Parallel: 8}, sweepTrials(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0] != 190 {
		t.Fatalf("single trial res = %v", res)
	}
}

// TestSweepErrorReporting: the reported error names the failing trial and
// wraps the cause, at every worker count.
func TestSweepErrorReporting(t *testing.T) {
	sentinel := errors.New("boom")
	for _, parallel := range []int{1, 2, 8} {
		trials := sweepTrials(12)
		trials[5].Run = func() (int, error) { return 0, sentinel }
		_, err := Sweep(Config{Parallel: parallel}, trials)
		if err == nil {
			t.Fatalf("parallel=%d: no error", parallel)
		}
		if !errors.Is(err, sentinel) {
			t.Fatalf("parallel=%d: error %v does not wrap sentinel", parallel, err)
		}
		if !strings.Contains(err.Error(), `"t5"`) {
			t.Fatalf("parallel=%d: error %v does not name the trial", parallel, err)
		}
	}
}

// TestSweepCancelsAfterError: once a failure is observed, workers stop
// claiming trials, so a long tail after an early error mostly never runs.
// Sequentially the cut is exact; in parallel at most the in-flight
// trials finish.
func TestSweepCancelsAfterError(t *testing.T) {
	const n = 100
	for _, parallel := range []int{1, 4} {
		var ran atomic.Int64
		trials := make([]Trial[int], n)
		for i := range trials {
			trials[i] = Trial[int]{
				Name: fmt.Sprintf("t%d", i),
				Run: func() (int, error) {
					ran.Add(1)
					if i == 2 {
						return 0, errors.New("early failure")
					}
					// Dwell long enough that the stop flag (set the moment
					// the failing trial returns) is visible well before the
					// pool could drain the remaining tail.
					time.Sleep(time.Millisecond)
					return i, nil
				},
			}
		}
		if _, err := Sweep(Config{Parallel: parallel}, trials); err == nil {
			t.Fatalf("parallel=%d: expected error", parallel)
		}
		got := ran.Load()
		if parallel == 1 && got != 3 {
			t.Fatalf("sequential: ran %d trials, want exactly 3", got)
		}
		// Parallel: trials claimed before the flag flipped still finish, so
		// the exact count is scheduler-dependent — but the long tail must
		// clearly have been skipped.
		if got > n/2 {
			t.Fatalf("parallel=%d: ran %d of %d trials after early failure", parallel, got, n)
		}
	}
}

// TestSweepPanicPropagates: a panicking trial must surface on the calling
// goroutine, naming the trial, not kill the process from a worker.
func TestSweepPanicPropagates(t *testing.T) {
	for _, parallel := range []int{2, 8} {
		func() {
			defer func() {
				v := recover()
				if v == nil {
					t.Fatalf("parallel=%d: no panic", parallel)
				}
				if s, ok := v.(string); !ok || !strings.Contains(s, `"t3"`) {
					t.Fatalf("parallel=%d: panic %v does not name the trial", parallel, v)
				}
			}()
			trials := sweepTrials(8)
			trials[3].Run = func() (int, error) { panic("trial blew up") }
			_, _ = Sweep(Config{Parallel: parallel}, trials)
		}()
	}
}

// TestSweepConcurrentFabricTrials drives real fabric workloads through
// the pool — the -race meat: many engines, fabrics, routers, and RNGs
// alive at once must share no mutable state.
func TestSweepConcurrentFabricTrials(t *testing.T) {
	const n = 8
	build := func() []Trial[string] {
		trials := make([]Trial[string], n)
		for i := range trials {
			trials[i] = Trial[string]{
				Name: fmt.Sprintf("fabric%d", i),
				Run: func() (string, error) {
					g := topo.NewGrid(3, 3, topo.Options{LanesPerLink: 2})
					f, _, err := buildFabric(g, int64(100+i), nil)
					if err != nil {
						return "", err
					}
					rng := sim.NewRNG(int64(i))
					specs := workload.Uniform(rng, workload.UniformConfig{
						Nodes: 9, Flows: 20,
						Size:             workload.Fixed(16e3),
						MeanInterarrival: 2 * sim.Microsecond,
					})
					flows, err := runFlows(f, specs, sim.Time(10*sim.Second))
					if err != nil {
						return "", err
					}
					st, err := hostStats(flows)
					return fmt.Sprintf("%d:%.3f", i, st.p99.Microseconds()), err
				},
			}
		}
		return trials
	}
	seq, err := Sweep(Config{Parallel: 1}, build())
	if err != nil {
		t.Fatal(err)
	}
	par, err := Sweep(Config{Parallel: n}, build())
	if err != nil {
		t.Fatal(err)
	}
	for i := range seq {
		if seq[i] != par[i] {
			t.Fatalf("trial %d diverged: sequential %q vs parallel %q", i, seq[i], par[i])
		}
	}
}
