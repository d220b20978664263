package telemetry

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram()
	if h.Count() != 0 || h.Mean() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram not zeroed")
	}
	for i := int64(1); i <= 100; i++ {
		h.Record(i)
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Quantile(0) != 1 || h.Max() != 100 {
		t.Fatalf("min/max = %d/%d", h.Quantile(0), h.Max())
	}
	if m := h.Mean(); math.Abs(m-50.5) > 1e-9 {
		t.Fatalf("mean = %v", m)
	}
	p50 := h.Quantile(0.5)
	if p50 < 44 || p50 > 56 {
		t.Fatalf("p50 = %d, want ≈50 (±6.25%%)", p50)
	}
}

func TestHistogramExactSmallValues(t *testing.T) {
	// Values below 2^subBits land in exact buckets.
	h := NewHistogramPrecision(4)
	for i := 0; i < 10; i++ {
		h.Record(7)
	}
	if got := h.Quantile(0.5); got != 7 {
		t.Fatalf("p50 = %d, want 7 exactly", got)
	}
}

func TestHistogramQuantileEdges(t *testing.T) {
	h := NewHistogram()
	for _, v := range []int64{10, 20, 30} {
		h.Record(v)
	}
	if h.Quantile(0) != 10 {
		t.Fatalf("q0 = %d", h.Quantile(0))
	}
	if h.Quantile(1) != 30 {
		t.Fatalf("q1 = %d", h.Quantile(1))
	}
}

func TestNegativeSamplePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on negative sample")
		}
	}()
	NewHistogram().Record(-1)
}

// Property: for any sample set, every standard quantile estimate lies within
// the histogram's guaranteed relative error of the true order statistic.
func TestHistogramQuantileErrorProperty(t *testing.T) {
	f := func(raw []uint32) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 500 {
			raw = raw[:500]
		}
		h := NewHistogram()
		vals := make([]int64, len(raw))
		for i, v := range raw {
			vals[i] = int64(v)
			h.Record(int64(v))
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		for _, q := range []float64{0.5, 0.9, 0.99} {
			rank := int(math.Ceil(q*float64(len(vals)))) - 1
			if rank < 0 {
				rank = 0
			}
			truth := vals[rank]
			est := h.Quantile(q)
			// Estimate must be within one bucket (6.25%) below the truth and
			// never above the max.
			if float64(est) < float64(truth)*(1-1.0/16)-1 {
				return false
			}
			if est > vals[len(vals)-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(3))}); err != nil {
		t.Fatal(err)
	}
}

// Property: bucket mapping is monotone and lowerBound inverts it.
func TestBucketMappingProperty(t *testing.T) {
	h := NewHistogram()
	f := func(a uint32, b uint32) bool {
		x, y := int64(a), int64(b)
		bx, by := h.bucketOf(x), h.bucketOf(y)
		if x <= y && bx > by {
			return false
		}
		// lowerBound(bucketOf(x)) ≤ x.
		return h.lowerBound(bx) <= x
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(4))}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkHistogramRecord(b *testing.B) {
	h := NewHistogram()
	for i := 0; i < b.N; i++ {
		h.Record(int64(i&0xffff) + 1)
	}
}
