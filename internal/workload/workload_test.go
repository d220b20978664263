package workload

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"rackfab/internal/sim"
)

// Validate checks the CDF is well formed.
func (e Empirical) Validate() error {
	if len(e.Sizes) == 0 || len(e.Sizes) != len(e.CDF) {
		return fmt.Errorf("workload: CDF shape mismatch")
	}
	for i := 1; i < len(e.Sizes); i++ {
		if e.Sizes[i] <= e.Sizes[i-1] || e.CDF[i] <= e.CDF[i-1] {
			return fmt.Errorf("workload: CDF not strictly increasing at %d", i)
		}
	}
	if e.CDF[len(e.CDF)-1] != 1.0 {
		return fmt.Errorf("workload: CDF does not end at 1")
	}
	return nil
}

// totalBytes sums the bytes of a spec list.
func totalBytes(specs []FlowSpec) int64 {
	var sum int64
	for _, s := range specs {
		sum += s.Bytes
	}
	return sum
}

func TestFixed(t *testing.T) {
	d := Fixed(1500)
	rng := sim.NewRNG(1)
	if d.Sample(rng) != 1500 || d.Mean() != 1500 {
		t.Fatal("fixed dist broken")
	}
}

func TestParetoProperties(t *testing.T) {
	d := Pareto{Alpha: 1.5, MinBytes: 1000, MaxBytes: 1e7}
	rng := sim.NewRNG(2)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		v := d.Sample(rng)
		if v < 1000 || v > 1e7 {
			t.Fatalf("sample %d out of bounds", v)
		}
		sum += float64(v)
	}
	// Mean ≈ alpha/(alpha-1)·min = 3000 (truncation pulls it slightly down).
	mean := sum / n
	if mean < 2300 || mean > 3100 {
		t.Fatalf("sample mean = %v, want ≈2700-3000", mean)
	}
}

// TestParetoClampsBeyondInt64: a draw whose quantile overflows int64 must
// clamp to the bound (or to MaxInt64 without one), not convert to an
// unspecified value and fall to the 1-byte floor.
func TestParetoClampsBeyondInt64(t *testing.T) {
	top := math.Nextafter(1, 0)
	if got := (Pareto{Alpha: 1.05, MinBytes: 1e6}).SampleU(top); got != math.MaxInt64 {
		t.Errorf("unbounded SampleU(%v) = %d, want MaxInt64", top, got)
	}
	if got := (Pareto{Alpha: 1.05, MinBytes: 1e6, MaxBytes: 1e9}).SampleU(top); got != 1e9 {
		t.Errorf("bounded SampleU(%v) = %d, want the 1e9 bound", top, got)
	}
	// At alpha 0.01 nearly every draw's quantile overflows int64.
	d := Pareto{Alpha: 0.01, MinBytes: 1e6, MaxBytes: 1e12}
	rng := sim.NewRNG(4)
	for i := 0; i < 100; i++ {
		if v := d.Sample(rng); v < d.MinBytes || v > d.MaxBytes {
			t.Fatalf("Sample = %d, want within [%d, %d]", v, d.MinBytes, d.MaxBytes)
		}
	}
}

func TestEmpiricalCDFs(t *testing.T) {
	for _, e := range []Empirical{WebSearch(), DataMining()} {
		if err := e.Validate(); err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		rng := sim.NewRNG(3)
		max := e.Sizes[len(e.Sizes)-1]
		for i := 0; i < 10000; i++ {
			v := e.Sample(rng)
			if v < 1 || v > max {
				t.Fatalf("%s: sample %d out of range", e.Name(), v)
			}
		}
		if e.Mean() <= 0 {
			t.Fatalf("%s: nonpositive mean", e.Name())
		}
	}
}

func TestEmpiricalMedianRoughlyMatchesCDF(t *testing.T) {
	e := WebSearch()
	rng := sim.NewRNG(4)
	under := 0
	const n = 50000
	for i := 0; i < n; i++ {
		// CDF says 53% of flows are ≤ 53KB.
		if e.Sample(rng) <= 53e3 {
			under++
		}
	}
	frac := float64(under) / n
	if math.Abs(frac-0.53) > 0.02 {
		t.Fatalf("P[X≤53K] = %v, want ≈0.53", frac)
	}
}

func TestUniformPattern(t *testing.T) {
	rng := sim.NewRNG(5)
	specs := Uniform(rng, UniformConfig{Nodes: 16, Flows: 1000, Size: Fixed(1500), MeanInterarrival: sim.Microsecond})
	if len(specs) != 1000 {
		t.Fatalf("specs = %d", len(specs))
	}
	if err := ValidateSpecs(specs, 16); err != nil {
		t.Fatal(err)
	}
	// Arrivals strictly ordered and advancing.
	for i := 1; i < len(specs); i++ {
		if specs[i].At < specs[i-1].At {
			t.Fatal("arrivals not monotone")
		}
	}
	if specs[len(specs)-1].At == 0 {
		t.Fatal("arrival process did not advance")
	}
}

func TestPermutationIsDerangement(t *testing.T) {
	rng := sim.NewRNG(6)
	for trial := 0; trial < 50; trial++ {
		specs := Permutation(rng, 12, Fixed(1e6))
		if len(specs) != 12 {
			t.Fatalf("specs = %d", len(specs))
		}
		seenDst := map[int]bool{}
		for _, s := range specs {
			if s.Src == s.Dst {
				t.Fatal("fixed point in permutation")
			}
			if seenDst[s.Dst] {
				t.Fatal("destination reused")
			}
			seenDst[s.Dst] = true
		}
	}
}

func TestHotspotSkew(t *testing.T) {
	rng := sim.NewRNG(7)
	specs := Hotspot(rng, HotspotConfig{Nodes: 64, Flows: 20000, Size: Fixed(1500), HotNodes: 4, HotFraction: 0.7})
	hot := 0
	for _, s := range specs {
		if s.Dst < 4 {
			hot++
		}
	}
	frac := float64(hot) / float64(len(specs))
	// 0.7 aimed + ~4/64 of the uniform remainder ≈ 0.719.
	if math.Abs(frac-0.719) > 0.02 {
		t.Fatalf("hot fraction = %v", frac)
	}
	if err := ValidateSpecs(specs, 64); err != nil {
		t.Fatal(err)
	}
}

func TestIncast(t *testing.T) {
	rng := sim.NewRNG(8)
	specs := Incast(rng, 32, 5, 16, Fixed(64e3))
	if len(specs) != 16 {
		t.Fatalf("specs = %d", len(specs))
	}
	for _, s := range specs {
		if s.Dst != 5 || s.Src == 5 {
			t.Fatalf("bad incast edge %+v", s)
		}
		if s.At != 0 {
			t.Fatal("incast must be simultaneous")
		}
	}
}

func TestShuffle(t *testing.T) {
	rng := sim.NewRNG(9)
	specs := Shuffle(rng, ShuffleConfig{
		Mappers:      Range(8),
		Reducers:     Range(8),
		BytesPerPair: 1e6,
	})
	// 8x8 all-to-all minus 8 self pairs.
	if len(specs) != 56 {
		t.Fatalf("specs = %d", len(specs))
	}
	if totalBytes(specs) != 56e6 {
		t.Fatalf("total = %d", totalBytes(specs))
	}
	if err := ValidateSpecs(specs, 8); err != nil {
		t.Fatal(err)
	}
}

func TestShuffleJitterBounds(t *testing.T) {
	rng := sim.NewRNG(10)
	specs := Shuffle(rng, ShuffleConfig{
		Mappers: Range(4), Reducers: Range(4),
		BytesPerPair: 1000, Jitter: 50 * sim.Microsecond,
	})
	for _, s := range specs {
		if s.At < 0 || s.At >= sim.Time(50*sim.Microsecond) {
			t.Fatalf("jitter out of bounds: %v", s.At)
		}
	}
}

func TestValidateSpecsRejects(t *testing.T) {
	bad := [][]FlowSpec{
		{{Src: 0, Dst: 0, Bytes: 1}},
		{{Src: -1, Dst: 1, Bytes: 1}},
		{{Src: 0, Dst: 99, Bytes: 1}},
		{{Src: 0, Dst: 1, Bytes: 0}},
	}
	for i, specs := range bad {
		if err := ValidateSpecs(specs, 4); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

// Property: generators are deterministic given a seed and always produce
// valid specs.
func TestGeneratorDeterminismProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := 4 + int(nRaw)%28
		a := Uniform(sim.NewRNG(seed), UniformConfig{Nodes: n, Flows: 50, Size: Fixed(1000)})
		b := Uniform(sim.NewRNG(seed), UniformConfig{Nodes: n, Flows: 50, Size: Fixed(1000)})
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return ValidateSpecs(a, n) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(80))}); err != nil {
		t.Fatal(err)
	}
}
