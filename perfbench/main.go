// Command perfbench is the repository's benchmark. It runs one named
// workload, generating every input from --seed, measures the end-to-end
// metrics with tracing off (--trace 0) or the per-layer metrics in a
// separate traced run (--trace 1), checks the simulated outputs, and prints
// each metric by name with its unit, then one JSON result line.
//
// Run it from the repository root through the wrapper, which builds it:
//
//	python3 perfbench/run.py --workload fluid-perm-1024 --seed 1 --seconds 10 --trace 0
//	python3 perfbench/run.py --smoke    # every workload and the traced mode at toy size
//
// BENCHMARK.json declares the workloads and metrics; perfbench/layers.json
// ties each per-layer metric to the end-to-end metrics it should and should
// not move.
package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"rackfab"
	"rackfab/internal/experiment"
)

// recordedJSON holds the simulated-results digest recorded per workload and
// seed ("*" for any seed). A change that only speeds the simulator up must
// reproduce them.
//
//go:embed digests.json
var recordedJSON []byte

// traceDir receives the traced run's spans; it is ignored by git.
const traceDir = ".bench_build/trace"

// fullScale is the measured size. service-soak arrives at 70k flows/s, below
// the rate where the 32×32 grid saturates: at 100k/s a tick cost 4.5 times
// as much, the flows held at once ranged 3.4k–5.2k across seeds, and the
// soak's cost moved with the seed as much as with the program.
func fullScale() scale {
	return scale{
		name:     "full",
		permSide: 32, permBytes: 1_000_000,
		churnSide: 32, churnBytes: 250_000, churnJCT: 684 * time.Microsecond, churnFlaps: 8,
		soakSide: 32, soakRate: 70e3, warmTicks: 100, soakTicks: 3000,
		setups: 6, suite: suiteIDs, warmExp: "e10",
	}
}

// smokeScale is the toy size that keeps the harness from rotting between
// re-baselines: 4×4 fabrics, a few ticks, one cheap experiment.
func smokeScale() scale {
	return scale{
		name:     "smoke",
		permSide: 4, permBytes: 64_000,
		churnSide: 4, churnBytes: 64_000, churnJCT: 22 * time.Microsecond, churnFlaps: 2,
		soakSide: 4, soakRate: 5e3, warmTicks: 2, soakTicks: 20,
		setups: 1, suite: []string{"fig1"}, warmExp: "fig1",
	}
}

// suiteIDs is quick-suite's experiment list: every experiment registered
// when the benchmark was defined. It is fixed so that registering a new
// experiment does not silently change the workload; untraced runs note any
// registered experiment the suite does not run.
var suiteIDs = []string{"a1", "a2", "a3", "e10", "e12", "e13", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "fig1", "fig2"}

var workloadNames = []string{"fluid-perm-1024", "packet-churn-1024", "service-soak-1024", "quick-suite"}

func batchFor(w string, seed int64, sc scale) *batchInput {
	rng := newRNG(seed, w)
	if w == "fluid-perm-1024" {
		return &batchInput{
			cfg:   rackfab.Config{Topology: rackfab.Grid, Width: sc.permSide, Height: sc.permSide, Engine: rackfab.EngineFluid, Seed: seed},
			specs: permutation(rng, sc.permSide*sc.permSide, sc.permBytes, "perm"),
		}
	}
	in := &batchInput{
		cfg:   rackfab.Config{Topology: rackfab.Torus, Width: sc.churnSide, Height: sc.churnSide, Engine: rackfab.EnginePacket, Seed: seed},
		specs: permutation(rng, sc.churnSide*sc.churnSide, sc.churnBytes, "churn"),
	}
	in.faults = churnFaults(rng, sc.churnSide, sc.churnFlaps, sc.churnJCT)
	return in
}

func soakFor(seed int64, sc scale) *soakInput {
	return &soakInput{
		cfg: rackfab.Config{Topology: rackfab.Grid, Width: sc.soakSide, Height: sc.soakSide, Engine: rackfab.EngineFluid, Seed: seed},
		scfg: rackfab.ServeConfig{
			Tick:     soakTick,
			Arrivals: rackfab.ArrivalSpec{Process: "poisson", Seed: arrivalSeed(seed), Rate: sc.soakRate, Sizes: "websearch"},
		},
		warm: sc.warmTicks, ticks: sc.soakTicks,
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects one run's metrics, checks and digest.
type report struct {
	workload  string
	seed      int64
	metrics   map[string]metric
	attempted int64
	failed    int64
	digest    string
	lines     []string
}

func newReport(w string, seed int64) *report {
	return &report{workload: w, seed: seed, metrics: map[string]metric{}}
}

func (r *report) set(name string, v float64, unit string) { r.metrics[name] = metric{v, unit} }

func (r *report) note(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// check records one output check.
func (r *report) check(what string, ok bool) {
	r.attempted++
	status := "ok"
	if !ok {
		r.failed++
		status = "FAILED"
	}
	r.note("check %s: %s", what, status)
}

// count folds a pass's per-operation checks into the report.
func (r *report) count(p *pass) {
	r.attempted += p.attempted
	r.failed += p.failed
}

// peakRSSMB returns the process's peak resident memory (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb * 1024 / 1e6, err
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

func mb(b uint64) float64 { return float64(b) / 1e6 }

// minCycles is the fewest cycles a batch or service-soak run makes. Each
// cycle runs in a fresh process; peak_rss_mb is the largest peak of the
// run's processes and every other metric the median over them. One process
// is not enough: the garbage collector's pacing settles into a state that
// lasts the whole process and moves its peak memory (packet-churn peaks read
// about 290 or about 355 MB for one input, and the median of five flipped
// between the two on more seeds than the largest did),
// and on a shared 2-vCPU VM one service-soak input soaked twice in a row
// took 2.90 and 3.22 s.
const minCycles = 5

// minPasses is the fewest timed suite passes a quick-suite run makes.
const minPasses = 2

// cycleResult is one batch or service-soak cycle, measured in its own
// process.
type cycleResult struct {
	SetupS, WallS      float64
	AllocMB, PeakRSSMB float64
	Digest             string
	Attempted, Failed  int64
	Note               string
}

// measureCycle runs one cycle in this process (the --cycle mode). A
// service-soak cycle reads its peak memory before it checkpoints, so that
// peak_rss_mb is the serving process's, and checkpoints and resumes only
// when asked to: once per run makes the check.
func measureCycle(w string, seed int64, sc scale, checkpoint bool) (*cycleResult, error) {
	c := &cycleResult{}
	var p *pass
	var err error
	if w == "service-soak-1024" {
		in := soakFor(seed, sc)
		var svc *rackfab.Service
		if svc, p, err = facadeSoak(in); err != nil {
			return nil, err
		}
		if c.PeakRSSMB, err = peakRSSMB(); err != nil {
			return nil, err
		}
		c.Note = fmt.Sprintf("ticks %d, tick p50 %.1f us, tick p99 %.1f us, injected %d, retained peak %d, refills %d",
			len(p.ticks), us(percentile(p.ticks, 50)), us(percentile(p.ticks, 99)), p.injected, p.retainedPeak,
			p.rep.Solver.WarmHits+p.rep.Solver.WarmFallbacks+p.rep.Solver.ColdFills)
		if checkpoint {
			if err := checkpointResume(in, svc, p); err != nil {
				return nil, err
			}
			c.Note += fmt.Sprintf(", checkpoint %.2f MB, restore %.3f s", float64(p.ckptBytes)/1e6, p.restore.Seconds())
		}
	} else {
		in := batchFor(w, seed, sc)
		if p, err = facadeBatch(in); err != nil {
			return nil, err
		}
		if c.PeakRSSMB, err = peakRSSMB(); err != nil {
			return nil, err
		}
		c.Note = fmt.Sprintf("flows %d, simulated JCT %v, FCT p99 %.3f us, route columns repaired %d, frames %d, refills %d",
			len(in.specs), p.jct, p.rep.FCT.P99Us, p.rep.Faults.RouteRepairs, p.rep.FramesDelivered,
			p.rep.Solver.WarmHits+p.rep.Solver.WarmFallbacks+p.rep.Solver.ColdFills)
	}
	c.SetupS, c.WallS, c.AllocMB = p.setup.Seconds(), p.wall.Seconds(), mb(p.alloc)
	c.Digest, c.Attempted, c.Failed = p.digest, p.attempted, p.failed
	return c, nil
}

// runCycle runs one cycle in a child process of this binary and waits for
// it; the child is killed if this process dies first.
func runCycle(w string, seed int64, scaleName string, checkpoint bool) (*cycleResult, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "--workload", w, "--seed", strconv.FormatInt(seed, 10), "--cycle", scaleName,
		"--checkpoint="+strconv.FormatBool(checkpoint))
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("cycle process: %w", err)
	}
	var c cycleResult
	if err := json.Unmarshal(out, &c); err != nil {
		return nil, fmt.Errorf("cycle process output: %w", err)
	}
	return &c, nil
}

// untraced measures the end-to-end metrics through the public API.
func untraced(w string, seed int64, seconds float64, sc scale) (*report, error) {
	r := newReport(w, seed)
	var setups, walls, allocs, rsses []float64
	switch w {
	case "fluid-perm-1024", "packet-churn-1024", "service-soak-1024":
		start := hostNow()
		for len(walls) < minCycles || hostSince(start).Seconds() < seconds {
			c, err := runCycle(w, seed, sc.name, len(walls) == 0)
			if err != nil {
				return nil, err
			}
			r.attempted += c.Attempted
			r.failed += c.Failed
			setups = append(setups, c.SetupS)
			walls = append(walls, c.WallS)
			allocs = append(allocs, c.AllocMB)
			rsses = append(rsses, c.PeakRSSMB)
			if r.digest != "" {
				r.check(fmt.Sprintf("cycle %d digest repeats", len(walls)), c.Digest == r.digest)
				continue
			}
			r.digest = c.Digest
			r.note("%s", c.Note)
		}
	case "quick-suite":
		for i := 0; i < sc.setups; i++ {
			runtime.GC()
			p, err := runSuite([]string{sc.warmExp}, nil)
			if err != nil {
				return nil, err
			}
			r.count(p)
			setups = append(setups, p.wall.Seconds())
		}
		start := hostNow()
		for len(walls) < minPasses || hostSince(start).Seconds() < seconds {
			runtime.GC()
			p, err := runSuite(sc.suite, nil)
			if err != nil {
				return nil, err
			}
			r.count(p)
			if r.digest == "" {
				r.digest = p.digest
			} else {
				r.check(fmt.Sprintf("pass %d digest repeats", len(walls)), p.digest == r.digest)
			}
			walls = append(walls, p.wall.Seconds())
			allocs = append(allocs, mb(p.alloc))
			if len(walls) == 1 {
				if extra := unlisted(sc.suite); len(extra) > 0 {
					r.note("registered experiments the suite does not run: %s", strings.Join(extra, " "))
				}
				rss, err := peakRSSMB()
				if err != nil {
					return nil, err
				}
				rsses = append(rsses, rss)
			}
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", w, strings.Join(workloadNames, ", "))
	}
	r.note("samples: %d set-ups, %d timed runs", len(setups), len(walls))
	r.set("setup_s", median(setups), "s")
	r.set("wall_s", median(walls), "s")
	r.set("alloc_mb", median(allocs), "MB")
	r.set("peak_rss_mb", slices.Max(rsses), "MB")
	return r, nil
}

// unlisted returns the registered experiment IDs missing from suite.
func unlisted(suite []string) []string {
	in := map[string]bool{}
	for _, id := range suite {
		in[id] = true
	}
	var out []string
	for _, id := range experiment.IDs() {
		if !in[id] {
			out = append(out, id)
		}
	}
	return out
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func pct(a, b time.Duration) float64 { return (float64(a)/float64(b) - 1) * 100 }

// traced runs the workload's façade pass, its internal pass untraced, and
// the internal pass traced, and reports the per-layer metrics.
func traced(w string, seed int64, sc scale) (*report, error) {
	r := newReport(w, seed)
	tr := newTracer()
	var digests []string
	switch w {
	case "fluid-perm-1024", "packet-churn-1024":
		in := batchFor(w, seed, sc)
		runtime.GC()
		fp, err := facadeBatch(in)
		if err != nil {
			return nil, err
		}
		r.count(fp)
		digests = append(digests, fp.digest)
		var run *packetRun
		base, err := sandwich(tr, &digests, func(t *tracer) (*pass, error) {
			t.setID(0)
			root := t.begin("bench.cycle")
			defer t.end(root)
			if w == "fluid-perm-1024" {
				return internalFluid(in, t)
			}
			pr, err := internalPacket(in, t)
			if err != nil {
				return nil, err
			}
			if t != nil {
				run = pr
			}
			return pr.pass, nil
		})
		if err != nil {
			return nil, err
		}
		r.set("facade.overhead_pct", pct(fp.setup+fp.wall, base.untraced), "%")
		r.set("trace.overhead_pct", pct(base.traced, base.untraced), "%")
		fillSolver(r, fp.rep)
		if run != nil {
			r.set("sim.events", float64(run.events), "count")
			r.set("packet.frames", float64(fp.rep.FramesDelivered), "count")
			simRun := tr.byName()["sim.run"].total
			r.set("sim.ns_per_event", float64(simRun)/float64(run.events), "ns")
			r.set("packet.frames_per_s", float64(run.frames)/simRun.Seconds(), "1/s")
			r.set("route.repair_cols", float64(fp.rep.Faults.RouteRepairs), "count")
			d, cols, err := probeRepair(in.cfg, run.sched, run.end, tr)
			if err != nil {
				return nil, err
			}
			r.note("repair replay: %d columns (run reported %d)", cols, fp.rep.Faults.RouteRepairs)
			if cols > 0 {
				r.set("route.repair_us_per_col", us(d)/float64(cols), "us")
			}
		}
		probeRoute(r, in.cfg, tr)
	case "service-soak-1024":
		in := soakFor(seed, sc)
		svc, fp, err := facadeSoak(in)
		if err == nil {
			err = checkpointResume(in, svc, fp)
		}
		if err != nil {
			return nil, err
		}
		r.count(fp)
		digests = append(digests, fp.digest)
		base, err := sandwich(tr, &digests, func(t *tracer) (*pass, error) { return internalSoak(in, t) })
		if err != nil {
			return nil, err
		}
		r.set("facade.overhead_pct", pct(fp.setup+fp.wall, base.untraced), "%")
		r.set("trace.overhead_pct", pct(base.traced, base.untraced), "%")
		r.set("service.ticks", float64(len(fp.ticks)), "count")
		r.set("service.tick_p50_us", us(percentile(fp.ticks, 50)), "us")
		r.set("service.tick_p99_us", us(percentile(fp.ticks, 99)), "us")
		r.set("service.retained_peak", float64(fp.retainedPeak), "count")
		r.set("service.injected", float64(fp.injected), "count")
		r.set("facade.checkpoint_s", fp.ckpt.Seconds(), "s")
		r.set("facade.checkpoint_mb", float64(fp.ckptBytes)/1e6, "MB")
		r.set("facade.restore_s", fp.restore.Seconds(), "s")
		fillSolver(r, fp.rep)
		spans := tr.byName()
		for _, name := range []string{"workload.next", "service.inject", "service.advance", "service.drain", "service.retire"} {
			if st := spans[name]; st != nil {
				r.set(name+"_s", st.total.Seconds(), "s")
				r.set(name+"_p99_us", us(percentile(st.durs, 99)), "us")
			}
		}
		probeRoute(r, in.cfg, tr)
	case "quick-suite":
		base, err := sandwich(tr, &digests, func(t *tracer) (*pass, error) {
			p, err := runSuite(sc.suite, t)
			if err == nil {
				r.count(p)
			}
			return p, err
		})
		if err != nil {
			return nil, err
		}
		r.set("trace.overhead_pct", pct(base.traced, base.untraced), "%")
		for name, st := range tr.byName() {
			r.set(name+"_s", st.total.Seconds(), "s")
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", w, strings.Join(workloadNames, ", "))
	}
	spans := tr.byName()
	if st := spans["fluid.new_session"]; st != nil {
		r.set("fluid.new_session_s", st.total.Seconds(), "s")
	}
	if st := spans["fluid.advance"]; st != nil {
		r.set("fluid.advance_s", st.total.Seconds(), "s")
		if n := r.metrics["fluid.refills"].Value; n > 0 {
			r.set("fluid.us_per_refill", us(st.total)/n, "us")
		}
	}
	for layer, d := range tr.selfByLayer() {
		if layer != "bench" {
			r.set(layer+".self_s", d.Seconds(), "s")
		}
	}
	r.set("trace.spans", float64(len(tr.spans)), "count")
	r.digest = digests[0]
	same := true
	for _, d := range digests {
		same = same && d == digests[0]
	}
	r.note("digests (façade, then internal untraced/traced/untraced): %s", strings.Join(digests, " "))
	r.check("traced digest equals untraced digest", same)
	path, err := tr.write(traceDir, w, seed)
	if err != nil {
		return nil, err
	}
	r.note("spans written to %s", path)
	return r, nil
}

// passTimes is the host time (set-up plus run) of the internal pass, traced
// and untraced.
type passTimes struct{ traced, untraced time.Duration }

// sandwich runs an internal pass untraced, traced, then untraced again; the
// untraced time is the mean of the two passes around the traced one, so the
// tracing and façade overheads are not skewed by which pass ran first.
func sandwich(tr *tracer, digests *[]string, pass func(*tracer) (*pass, error)) (passTimes, error) {
	var pt passTimes
	for i, t := range []*tracer{nil, tr, nil} {
		runtime.GC()
		p, err := pass(t)
		if err != nil {
			return pt, err
		}
		*digests = append(*digests, p.digest)
		if i == 1 {
			pt.traced = p.setup + p.wall
		} else {
			pt.untraced += (p.setup + p.wall) / 2
		}
	}
	return pt, nil
}

// fillSolver reports the fluid solver's counts from the public Report.
func fillSolver(r *report, rep rackfab.Report) {
	s := rep.Solver
	r.set("fluid.refills", float64(s.WarmHits+s.WarmFallbacks+s.ColdFills), "count")
	r.set("fluid.warm_hits", float64(s.WarmHits), "count")
	r.set("fluid.warm_fallbacks", float64(s.WarmFallbacks), "count")
	r.set("fluid.cold_fills", float64(s.ColdFills), "count")
	r.set("fluid.warm_hit_pct", s.WarmHitPct, "%")
}

func probeRoute(r *report, cfg rackfab.Config, tr *tracer) {
	runtime.GC()
	d, alloc := probeRouteBuild(cfg, tr)
	r.set("route.build_s", d.Seconds(), "s")
	r.set("route.table_mb", mb(alloc), "MB")
}

// benchSpec is the part of BENCHMARK.json the harness checks itself against.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// finish fills the declared metrics of the run's mode — a per-layer metric a
// workload does not exercise reads 0 — and rejects any metric the spec does
// not declare or declares with another unit.
func (s *benchSpec) finish(r *report, traceMode bool) (*result, error) {
	decl := s.EndToEnd
	if traceMode {
		decl = s.PerLayer
	}
	out := &result{Attempted: r.attempted, Failed: r.failed, Correct: r.failed == 0 && r.attempted > 0, Metrics: map[string]metric{}}
	for _, m := range decl {
		got, ok := r.metrics[m.Name]
		switch {
		case !ok && !traceMode:
			return nil, fmt.Errorf("end-to-end metric %s not measured", m.Name)
		case !ok:
			got = metric{0, m.Unit}
		case got.Unit != m.Unit:
			return nil, fmt.Errorf("metric %s measured in %s, declared in %s", m.Name, got.Unit, m.Unit)
		}
		out.Metrics[m.Name] = got
	}
	for name := range r.metrics {
		if _, ok := out.Metrics[name]; !ok {
			return nil, fmt.Errorf("metric %s is not declared in BENCHMARK.json", name)
		}
	}
	return out, nil
}

func recorded(w string, seed int64) string {
	var all map[string]map[string]string
	if err := json.Unmarshal(recordedJSON, &all); err != nil {
		return "unreadable: " + err.Error()
	}
	if d, ok := all[w][strconv.FormatInt(seed, 10)]; ok {
		return d
	}
	if d, ok := all[w]["*"]; ok { // a workload without random inputs
		return d
	}
	return "none"
}

func execute(w string, seed int64, seconds float64, traceMode bool, sc scale, spec *benchSpec) (*result, *report, error) {
	var r *report
	var err error
	if traceMode {
		r, err = traced(w, seed, sc)
	} else {
		r, err = untraced(w, seed, seconds, sc)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", w, err)
	}
	res, err := spec.finish(r, traceMode)
	return res, r, err
}

func printReport(r *report, res *result) {
	rec := recorded(r.workload, r.seed)
	verdict := "match"
	switch {
	case rec == "none":
		verdict = "no value recorded for this seed"
	case rec != r.digest:
		verdict = "DIFFERS: simulated results changed"
	}
	fmt.Printf("workload %s seed %d\n", r.workload, r.seed)
	fmt.Printf("digest %s recorded %s (%s)\n", r.digest, rec, verdict)
	for _, l := range r.lines {
		fmt.Println(l)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-32s %14.6f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	fmt.Printf("output checks: %d attempted, %d failed, correct=%v\n", res.Attempted, res.Failed, res.Correct)
}

// checkLayers verifies that every metric perfbench/layers.json names is
// declared in BENCHMARK.json and every workload it names exists.
func checkLayers(spec *benchSpec, path string) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var table struct {
		Layers []struct {
			Layer         string
			Metrics       []string
			ShouldMove    map[string][]string `json:"should_move"`
			ShouldNotMove map[string][]string `json:"should_not_move"`
		}
	}
	if err := json.Unmarshal(b, &table); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	declared := map[string]bool{}
	for _, m := range append(append([]specMetric(nil), spec.EndToEnd...), spec.PerLayer...) {
		declared[m.Name] = true
	}
	workloads := map[string]bool{}
	for _, w := range spec.Workloads {
		workloads[w.Name] = true
	}
	for _, l := range table.Layers {
		names := append([]string(nil), l.Metrics...)
		for _, pairs := range []map[string][]string{l.ShouldMove, l.ShouldNotMove} {
			for w, ms := range pairs {
				if !workloads[w] {
					return fmt.Errorf("%s: layer %s names unknown workload %s", path, l.Layer, w)
				}
				names = append(names, ms...)
			}
		}
		for _, n := range names {
			if !declared[n] {
				return fmt.Errorf("%s: layer %s names undeclared metric %s", path, l.Layer, n)
			}
		}
	}
	return nil
}

// smoke runs every workload untraced and traced at toy size.
func smoke(spec *benchSpec) int {
	bad := 0
	if err := checkLayers(spec, "perfbench/layers.json"); err != nil {
		fmt.Println("smoke layers.json:", err)
		bad++
	}
	for _, w := range workloadNames {
		for _, traceMode := range []bool{false, true} {
			res, r, err := execute(w, 1, 0, traceMode, smokeScale(), spec)
			switch {
			case err != nil:
				fmt.Printf("smoke %s trace=%v: ERROR %v\n", w, traceMode, err)
				bad++
			case !res.Correct:
				printReport(r, res)
				fmt.Printf("smoke %s trace=%v: FAILED checks\n", w, traceMode)
				bad++
			default:
				fmt.Printf("smoke %s trace=%v: ok (%d checks, digest %s)\n", w, traceMode, res.Attempted, r.digest)
			}
		}
	}
	if bad > 0 {
		return 1
	}
	return 0
}

func main() {
	fs := flag.NewFlagSet("perfbench", flag.ExitOnError)
	w := fs.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "how long the repeated cycles of a run measure")
	traceMode := fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	smokeRun := fs.Bool("smoke", false, "run every workload and the traced mode at toy size")
	cycle := fs.String("cycle", "", "internal: run one batch or service-soak cycle at this scale (full or smoke) and print it as JSON")
	checkpoint := fs.Bool("checkpoint", false, "internal: end a service-soak cycle with the checkpoint and resume check")
	_ = fs.Parse(os.Args[1:])

	if *cycle != "" {
		sc := fullScale()
		if *cycle == smokeScale().name {
			sc = smokeScale()
		}
		c, err := measureCycle(*w, *seed, sc, *checkpoint)
		if err == nil {
			err = json.NewEncoder(os.Stdout).Encode(c)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}

	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if *smokeRun {
		os.Exit(smoke(spec))
	}
	if *traceMode != 0 && *traceMode != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	res, r, err := execute(*w, *seed, *seconds, *traceMode == 1, fullScale(), spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	printReport(r, res)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
