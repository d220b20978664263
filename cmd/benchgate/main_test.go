package main

import (
	"strings"
	"testing"
)

const sampleBaseline = `// BENCH_fluid.json — fluid-engine baselines.
// historical section that must NOT be parsed as a gate:
// BenchmarkFluidEngine          6   173358849 ns/op  62715826 B/op
//
// GATE BenchmarkFluidAllocate/warm 53000 ns/op
// GATE BenchmarkFluidEngine 33000000 ns/op
// GATE BenchmarkFluidEngine 4000 allocs/op
`

const sampleBench = `goos: linux
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkFluidAllocate/warm         	   23324	     52822 ns/op	       0 B/op	       0 allocs/op
BenchmarkFluidAllocate/warm-4       	   23324	     51000 ns/op	       0 B/op	       0 allocs/op
BenchmarkFluidAllocate/cold         	   12439	    103103 ns/op	       0 B/op	       0 allocs/op
BenchmarkFluidEngine     	      33	  32918091 ns/op	 7633546 B/op	    3743 allocs/op
BenchmarkPacketEngine-2         	      20	   1100243 ns/op	   2399736 frames/s	  315014 B/op	    2318 allocs/op
PASS
`

func TestParseGatesSkipsHistoricalLines(t *testing.T) {
	gates, err := parseGates(strings.NewReader(sampleBaseline))
	if err != nil {
		t.Fatal(err)
	}
	if len(gates) != 3 {
		t.Fatalf("parsed %d gates, want 3: %v", len(gates), gates)
	}
	if g := gates[metric{"BenchmarkFluidAllocate/warm", "ns/op"}]; g != 53000 {
		t.Fatalf("warm gate = %v", g)
	}
	if g := gates[metric{"BenchmarkFluidEngine", "ns/op"}]; g != 33000000 {
		t.Fatalf("engine gate = %v", g)
	}
	if g := gates[metric{"BenchmarkFluidEngine", "allocs/op"}]; g != 4000 {
		t.Fatalf("engine allocs gate = %v", g)
	}
}

func TestParseBenchStripsCPUSuffixAndCollectsSamples(t *testing.T) {
	results, err := parseBench(strings.NewReader(sampleBench))
	if err != nil {
		t.Fatal(err)
	}
	if got := results[metric{"BenchmarkFluidAllocate/warm", "ns/op"}]; len(got) != 2 {
		t.Fatalf("warm samples = %v, want both plain and -4 suffixed", got)
	}
	if got := results[metric{"BenchmarkFluidEngine", "ns/op"}]; len(got) != 1 || got[0] != 32918091 {
		t.Fatalf("engine samples = %v", got)
	}
	if got := results[metric{"BenchmarkFluidEngine", "allocs/op"}]; len(got) != 1 || got[0] != 3743 {
		t.Fatalf("engine allocs samples = %v", got)
	}
	// A custom metric between ns/op and the -benchmem columns is skipped.
	if got := results[metric{"BenchmarkPacketEngine", "allocs/op"}]; len(got) != 1 || got[0] != 2318 {
		t.Fatalf("packet allocs samples = %v", got)
	}
	if got := results[metric{"BenchmarkPacketEngine", "ns/op"}]; len(got) != 1 || got[0] != 1100243 {
		t.Fatalf("packet ns samples = %v", got)
	}
}

var (
	xNs     = metric{"BenchmarkX", "ns/op"}
	xAllocs = metric{"BenchmarkX", "allocs/op"}
)

func TestCheckPassesWithinMargin(t *testing.T) {
	gates := map[metric]float64{xNs: 100, xAllocs: 1000}
	results := map[metric][]float64{xNs: {125}, xAllocs: {1300, 1200, 1400}}
	if f := check(gates, results, 30); len(f) != 0 {
		t.Fatalf("unexpected failures: %v", f)
	}
}

func TestCheckFailsPastMargin(t *testing.T) {
	gates := map[metric]float64{xNs: 100}
	results := map[metric][]float64{xNs: {131}}
	f := check(gates, results, 30)
	if len(f) != 1 || !strings.Contains(f[0], "exceeds gate") {
		t.Fatalf("failures = %v, want one regression", f)
	}
}

// TestCheckGatesAllocsSeparately checks that an allocs/op regression
// fails on its own while the same benchmark's ns/op passes.
func TestCheckGatesAllocsSeparately(t *testing.T) {
	gates := map[metric]float64{xNs: 100, xAllocs: 1000}
	results := map[metric][]float64{xNs: {90, 95, 100}, xAllocs: {1400, 1301, 1250}}
	f := check(gates, results, 30)
	if len(f) != 1 || !strings.Contains(f[0], "1301 allocs/op exceeds gate 1000 allocs/op") {
		t.Fatalf("failures = %v, want one allocs/op regression", f)
	}
}

func TestCheckFailsOnMissingBenchmark(t *testing.T) {
	gates := map[metric]float64{{"BenchmarkGone", "ns/op"}: 100}
	f := check(gates, nil, 30)
	if len(f) != 1 || !strings.Contains(f[0], "missing from input") {
		t.Fatalf("failures = %v, want missing-benchmark failure", f)
	}
}

// TestCheckFailsWithoutBenchmem checks that an allocs/op gate on a run
// without -benchmem (ns/op only) is a failure, not a silent pass.
func TestCheckFailsWithoutBenchmem(t *testing.T) {
	results, err := parseBench(strings.NewReader("BenchmarkX-2   20   1234 ns/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	f := check(map[metric]float64{xNs: 2000, xAllocs: 10}, results, 30)
	if len(f) != 1 || !strings.Contains(f[0], "BenchmarkX allocs/op: gated benchmark missing") {
		t.Fatalf("failures = %v, want the allocs/op gate missing", f)
	}
}

func TestMedianOddAndEven(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("odd median = %v", m)
	}
	if m := median([]float64{4, 1, 2, 3}); m != 2.5 {
		t.Fatalf("even median = %v", m)
	}
}
