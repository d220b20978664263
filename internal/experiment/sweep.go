package experiment

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Trial is one independent, seeded unit of a sweep: a named measurement
// that builds its own private world — sim.Engine, fabric, RNG streams —
// inside Run and returns one result. Because a trial owns everything it
// touches, a sweep's results are byte-identical whether its trials run
// sequentially or across a worker pool, and in whatever interleaving the
// scheduler picks.
type Trial[R any] struct {
	Name string
	Run  func() (R, error)
}

// trialPanic carries a panic out of a worker goroutine so Sweep can
// re-raise it on the caller's goroutine instead of killing the process
// from an anonymous worker. The stack is captured at recover time —
// the re-panic would otherwise only show Sweep's own frames.
type trialPanic struct {
	name  string
	value any
	stack []byte
}

// Sweep executes trials across a bounded worker pool and returns their
// results indexed exactly like the input slice. cfg.Workers() bounds the
// pool; one worker (or one trial) degrades to a plain sequential loop
// with no goroutines at all.
//
// Error policy: the first observed failure stops workers from claiming
// further trials, and Sweep reports the failed trial with the lowest
// index among those that ran. (Success output is byte-identical across
// worker counts; on the failure path only which trials were skipped may
// vary.) A panicking trial is re-panicked on the calling goroutine,
// wrapped with the trial name.
func Sweep[R any](cfg Config, trials []Trial[R]) ([]R, error) {
	results := make([]R, len(trials))
	workers := cfg.Workers()
	if workers > len(trials) {
		workers = len(trials)
	}

	if workers <= 1 {
		for i, tr := range trials {
			r, err := tr.Run()
			if err != nil {
				return nil, fmt.Errorf("experiment: trial %q: %w", tr.Name, err)
			}
			results[i] = r
		}
		return results, nil
	}

	errs := make([]error, len(trials))
	var (
		next    atomic.Int64
		failed  atomic.Bool
		panicMu sync.Mutex
		panics  []trialPanic
		wg      sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(trials) || failed.Load() {
					return
				}
				func() {
					defer func() {
						if v := recover(); v != nil {
							panicMu.Lock()
							panics = append(panics, trialPanic{trials[i].Name, v, debug.Stack()})
							panicMu.Unlock()
							failed.Store(true)
						}
					}()
					r, err := trials[i].Run()
					if err != nil {
						errs[i] = err
						failed.Store(true)
						return
					}
					results[i] = r
				}()
			}
		}()
	}
	wg.Wait()

	if len(panics) > 0 {
		panic(fmt.Sprintf("experiment: trial %q panicked: %v\nworker stack:\n%s",
			panics[0].name, panics[0].value, panics[0].stack))
	}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("experiment: trial %q: %w", trials[i].Name, err)
		}
	}
	return results, nil
}

// defaultWorkers resolves a Parallel setting of zero or less.
// GOMAXPROCS(0) rather than NumCPU: it respects cgroup CPU quotas and
// explicit user limits, where NumCPU would oversubscribe a container
// granted fewer schedulable cores than the host has.
func defaultWorkers() int { return runtime.GOMAXPROCS(0) }
