package sim

import (
	"hash/fnv"
	"math"
	"math/rand"
)

// RNG is a deterministic random stream. Each model component takes its own
// stream split off a root seed so that adding a component (or reordering
// event execution within one instant) does not perturb the draws seen by the
// others — the discipline OMNeT++ enforces with per-module RNG indices.
type RNG struct {
	src *rand.Rand
}

// NewRNG returns a stream seeded with seed.
func NewRNG(seed int64) *RNG {
	return &RNG{src: rand.New(rand.NewSource(seed))}
}

// splitmix64 is the finalizer used to derive child seeds; it is a strong
// bijection so labels that differ in one bit give unrelated streams.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Split derives an independent child stream identified by label. Splitting
// with the same label twice yields identical streams by design: components
// are addressed by name, not by creation order.
func (r *RNG) Split(label string) *RNG {
	h := fnv.New64a()
	h.Write([]byte(label))
	seed := splitmix64(h.Sum64() ^ uint64(r.src.Int63()))
	// Consume exactly one draw from the parent regardless of label so that
	// the parent stream advances deterministically per Split call.
	return NewRNG(int64(seed))
}

// SplitIndexed derives an independent child stream identified by label and
// an index, for per-port / per-lane streams.
func (r *RNG) SplitIndexed(label string, idx int) *RNG {
	h := fnv.New64a()
	h.Write([]byte(label))
	var buf [8]byte
	v := uint64(idx)
	for i := range buf {
		buf[i] = byte(v >> (8 * i))
	}
	h.Write(buf[:])
	seed := splitmix64(h.Sum64() ^ uint64(r.src.Int63()))
	return NewRNG(int64(seed))
}

// Float64 returns a uniform draw in [0,1).
func (r *RNG) Float64() float64 { return r.src.Float64() }

// Intn returns a uniform draw in [0,n).
func (r *RNG) Intn(n int) int { return r.src.Intn(n) }

// Int63 returns a non-negative uniform 63-bit draw.
func (r *RNG) Int63() int64 { return r.src.Int63() }

// Perm returns a random permutation of [0,n).
func (r *RNG) Perm(n int) []int { return r.src.Perm(n) }

// NormFloat64 returns a standard normal draw.
func (r *RNG) NormFloat64() float64 { return r.src.NormFloat64() }

// Exp returns an exponential draw with the given mean.
func (r *RNG) Exp(mean float64) float64 {
	return r.src.ExpFloat64() * mean
}

// ExpDuration returns an exponential Duration with the given mean, floored
// at one picosecond so arrival processes always advance the clock.
func (r *RNG) ExpDuration(mean Duration) Duration {
	d := Duration(r.Exp(float64(mean)))
	if d < 1 {
		d = 1
	}
	return d
}

// Pareto returns a bounded Pareto-ish draw with shape alpha and scale xm
// (the classic heavy-tailed flow-size model).
func (r *RNG) Pareto(alpha, xm float64) float64 {
	u := r.src.Float64()
	for u == 0 {
		u = r.src.Float64()
	}
	return xm / math.Pow(u, 1/alpha)
}

// Poisson returns a Poisson draw with the given mean. Knuth's product
// method is used for small means and a normal approximation above 60, which
// is far past the accuracy needed for bit-error counting.
func (r *RNG) Poisson(mean float64) int64 {
	switch {
	case mean <= 0:
		return 0
	case mean < 60:
		l := math.Exp(-mean)
		var k int64
		p := 1.0
		for {
			p *= r.src.Float64()
			if p <= l {
				return k
			}
			k++
		}
	default:
		k := int64(math.Round(mean + math.Sqrt(mean)*r.src.NormFloat64()))
		if k < 0 {
			k = 0
		}
		return k
	}
}

// Binomial returns a Binomial(n, p) draw. Exact Bernoulli summation is used
// for small n; for large n with tiny p (the bit-error regime: n ≈ 12k bits,
// p ≈ 1e-12…1e-4) the Poisson limit is used, and a normal approximation
// otherwise. The switchovers keep relative error far below the run-to-run
// noise of the experiments.
func (r *RNG) Binomial(n int64, p float64) int64 {
	if n <= 0 || p <= 0 {
		return 0
	}
	if p >= 1 {
		return n
	}
	mean := float64(n) * p
	switch {
	case n <= 64:
		var k int64
		for i := int64(0); i < n; i++ {
			if r.src.Float64() < p {
				k++
			}
		}
		return k
	case p < 0.01:
		k := r.Poisson(mean)
		if k > n {
			k = n
		}
		return k
	default:
		sd := math.Sqrt(mean * (1 - p))
		k := int64(math.Round(mean + sd*r.src.NormFloat64()))
		if k < 0 {
			k = 0
		}
		if k > n {
			k = n
		}
		return k
	}
}
