// Command benchgate is the CI perf gate: it reads the output of a `go test
// -bench` smoke run on stdin, parses the recorded baselines out of a
// BENCH_*.json file, and exits nonzero when any gated benchmark regressed
// past the allowed margin.
//
// Baselines are declared in the benchmark log as explicit GATE lines so the
// gate never has to guess which of the file's historical before/after
// sections is current. A gate bounds either ns/op or, for a run with
// -benchmem, allocs/op (deterministic, so it catches an allocation
// regression that timing noise would hide):
//
//	// GATE BenchmarkFluidAllocate/warm 53000 ns/op
//	// GATE BenchmarkFluidEngine 33000000 ns/op
//	// GATE BenchmarkPacketEngine 2800 allocs/op
//
// Usage:
//
//	go test -run xxx -bench '...' -benchtime 20x ./... | \
//	    go run ./cmd/benchgate -baseline BENCH_fluid.json -max-regress 30
//
// Every gated benchmark must appear in the input: a gate that silently
// stops running is itself a CI failure, not a pass.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

var (
	// gateRe matches "GATE <name> <value> <unit>" with an optional
	// comment prefix, as written in BENCH_*.json files.
	gateRe = regexp.MustCompile(`^(?://\s*)?GATE\s+(\S+)\s+([0-9.eE+]+)\s+(ns/op|allocs/op)\b`)
	// benchRe matches a `go test -bench` result line and captures its
	// "<value> <unit>" pairs. The -N suffix go test appends for GOMAXPROCS
	// is stripped so gates stay host-agnostic.
	benchRe = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([0-9.eE+]+\s+ns/op\b.*)$`)
)

// metric is one gated quantity: a benchmark's ns/op or allocs/op.
type metric struct{ name, unit string }

func (m metric) String() string { return m.name + " " + m.unit }

func main() {
	baseline := flag.String("baseline", "BENCH_fluid.json", "file holding GATE baseline lines")
	maxRegress := flag.Float64("max-regress", 30, "allowed regression over baseline, percent")
	flag.Parse()

	bf, err := os.Open(*baseline)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(2)
	}
	gates, err := parseGates(bf)
	bf.Close()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(2)
	}
	if len(gates) == 0 {
		fmt.Fprintf(os.Stderr, "benchgate: no GATE lines in %s\n", *baseline)
		os.Exit(2)
	}
	results, err := parseBench(os.Stdin)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(2)
	}
	failures := check(gates, results, *maxRegress)
	for _, f := range failures {
		fmt.Fprintf(os.Stderr, "benchgate: FAIL %s\n", f)
	}
	if len(failures) > 0 {
		os.Exit(1)
	}
	for _, m := range sortedMetrics(gates) {
		fmt.Printf("benchgate: ok %-40s %12.0f %-9s (gate %12.0f +%g%%)\n",
			m.name, median(results[m]), m.unit, gates[m], *maxRegress)
	}
}

// sortedMetrics returns the gated metrics ordered by name, then unit.
func sortedMetrics(gates map[metric]float64) []metric {
	ms := make([]metric, 0, len(gates))
	for m := range gates {
		ms = append(ms, m)
	}
	sort.Slice(ms, func(i, j int) bool {
		if ms[i].name != ms[j].name {
			return ms[i].name < ms[j].name
		}
		return ms[i].unit < ms[j].unit
	})
	return ms
}

// parseGates extracts GATE baselines from a benchmark log.
func parseGates(r io.Reader) (map[metric]float64, error) {
	gates := make(map[metric]float64)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		m := gateRe.FindStringSubmatch(strings.TrimSpace(sc.Text()))
		if m == nil {
			continue
		}
		v, err := strconv.ParseFloat(m[2], 64)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad GATE line %q", sc.Text())
		}
		gates[metric{m[1], m[3]}] = v
	}
	return gates, sc.Err()
}

// parseBench collects ns/op and allocs/op samples per benchmark from `go
// test -bench` output (multiple -count runs yield multiple samples;
// allocs/op appears only with -benchmem).
func parseBench(r io.Reader) (map[metric][]float64, error) {
	results := make(map[metric][]float64)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		m := benchRe.FindStringSubmatch(strings.TrimSpace(sc.Text()))
		if m == nil {
			continue
		}
		fields := strings.Fields(m[2])
		for i := 0; i+1 < len(fields); i += 2 {
			unit := fields[i+1]
			if unit != "ns/op" && unit != "allocs/op" {
				continue
			}
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("bad bench line %q", sc.Text())
			}
			key := metric{m[1], unit}
			results[key] = append(results[key], v)
		}
	}
	return results, sc.Err()
}

// check compares the median sample of every gated metric against its
// baseline and returns one failure string per violation or missing gate.
func check(gates map[metric]float64, results map[metric][]float64, maxRegress float64) []string {
	var failures []string
	for _, m := range sortedMetrics(gates) {
		samples := results[m]
		if len(samples) == 0 {
			failures = append(failures, fmt.Sprintf("%s: gated benchmark missing from input", m))
			continue
		}
		got := median(samples)
		limit := gates[m] * (1 + maxRegress/100)
		if got > limit {
			failures = append(failures, fmt.Sprintf("%s: %.0f %s exceeds gate %.0f %s (+%g%% allowed = %.0f)",
				m.name, got, m.unit, gates[m], m.unit, maxRegress, limit))
		}
	}
	return failures
}

// median returns the middle sample (mean of the middle two for even n).
func median(samples []float64) float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
