package telemetry

import (
	"math"
	"math/bits"
)

// Histogram is a log-linear histogram of non-negative int64 samples
// (latencies in picoseconds, flow sizes in bytes). Each power-of-two major
// bucket is divided into 2^subBits linear sub-buckets, bounding relative
// quantile error by 2^-subBits (6.25% at the default 4 sub-bits) in a flat
// 4 KiB array. It holds what must stay O(1) however long a run goes:
// per-frame latency and hop counts, and the service driver's FCTs.
type Histogram struct {
	subBits uint
	counts  []int64
	count   int64
	sum     float64
	min     int64
	max     int64
}

const defaultSubBits = 4

// NewHistogram returns a histogram with the default precision.
func NewHistogram() *Histogram { return NewHistogramPrecision(defaultSubBits) }

// NewHistogramPrecision returns a histogram with 2^subBits linear
// sub-buckets per power of two; subBits must be in [1,8].
func NewHistogramPrecision(subBits uint) *Histogram {
	if subBits < 1 || subBits > 8 {
		panic("telemetry: histogram subBits out of [1,8]")
	}
	// 64 major buckets cover the whole non-negative int64 range.
	return &Histogram{
		subBits: subBits,
		counts:  make([]int64, 64<<subBits),
		min:     math.MaxInt64,
	}
}

// bucketOf maps a sample to its bucket index.
func (h *Histogram) bucketOf(v int64) int {
	if v < 0 {
		panic("telemetry: negative histogram sample")
	}
	u := uint64(v)
	if u < 1<<h.subBits {
		// The first major bucket is exact.
		return int(u)
	}
	exp := 63 - bits.LeadingZeros64(u)
	sub := (u >> (uint(exp) - h.subBits)) & ((1 << h.subBits) - 1)
	return ((exp - int(h.subBits) + 1) << h.subBits) + int(sub)
}

// lowerBound returns the smallest sample value mapping to bucket idx.
func (h *Histogram) lowerBound(idx int) int64 {
	major := idx >> h.subBits
	sub := uint64(idx & ((1 << h.subBits) - 1))
	if major == 0 {
		return int64(sub)
	}
	exp := uint(major) + h.subBits - 1
	return int64(1<<exp | sub<<(exp-h.subBits))
}

// Record adds one sample.
func (h *Histogram) Record(v int64) {
	h.counts[h.bucketOf(v)]++
	h.count++
	h.sum += float64(v)
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// RecordN adds the same sample n times — the per-member expansion of a
// batched observation (a frame train delivers n frames at one latency).
func (h *Histogram) RecordN(v int64, n int64) {
	if n <= 0 {
		return
	}
	h.counts[h.bucketOf(v)] += n
	h.count += n
	h.sum += float64(v) * float64(n)
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() int64 { return h.count }

// Mean returns the exact sample mean (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Max returns the largest recorded sample (0 when empty).
func (h *Histogram) Max() int64 {
	if h.count == 0 {
		return 0
	}
	return h.max
}

// Quantile returns an estimate of the q-quantile (0 ≤ q ≤ 1): the floor of
// the bucket holding the nearest-rank sample, clamped to the observed
// min/max, so it reads up to 6.25% below that sample at the default
// precision and never exceeds the true max nor undershoots min. A set of
// completed flows is ranked exactly with Percentiles instead.
func (h *Histogram) Quantile(q float64) int64 {
	if h.count == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	rank := int64(math.Ceil(q * float64(h.count)))
	var seen int64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			v := h.lowerBound(i)
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return v
		}
	}
	return h.max
}
