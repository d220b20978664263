// Package workload generates the traffic matrices the evaluation runs over
// the fabric.
//
// The paper motivates the architecture with MapReduce: "a reducer has to
// wait for data from all mappers, [so] the slowest link pulls down the
// performance of an entire system". The generators here produce that
// shuffle pattern plus the standard rack suite — uniform random,
// permutation, hotspot, incast — with Poisson arrivals and heavy-tailed
// flow sizes, all as plain FlowSpec lists so every engine (packet-level,
// fluid, PoC) replays identical traffic for a given seed.
package workload

import (
	"fmt"
	"math"
	"sort"

	"rackfab/internal/sim"
)

// FlowSpec is one flow to inject: Bytes from Src to Dst at time At.
type FlowSpec struct {
	Src, Dst int
	Bytes    int64
	At       sim.Time
	// Label tags the flow's experiment role ("shuffle", "elephant", …).
	Label string
}

// SizeDist draws flow sizes in bytes.
type SizeDist interface {
	// Sample draws one flow size (always ≥ 1).
	Sample(rng *sim.RNG) int64
	// SampleU maps one uniform draw u ∈ [0,1) to a flow size (always ≥ 1):
	// the distribution's quantile function. The open-loop arrival processes
	// use it so their own Streams can drive any SizeDist without touching
	// the math/rand byte-streams behind Sample.
	SampleU(u float64) int64
	// Mean returns the distribution mean, used to convert offered load
	// into an arrival rate.
	Mean() float64
	// Name identifies the distribution in reports.
	Name() string
}

// Fixed is a degenerate size distribution.
type Fixed int64

// Sample returns the fixed size.
func (f Fixed) Sample(*sim.RNG) int64 { return int64(f) }

// SampleU returns the fixed size regardless of u.
func (f Fixed) SampleU(float64) int64 { return int64(f) }

// Mean returns the fixed size.
func (f Fixed) Mean() float64 { return float64(f) }

// Name identifies the distribution.
func (f Fixed) Name() string { return fmt.Sprintf("fixed(%dB)", int64(f)) }

// Pareto is a bounded Pareto flow-size distribution: the classic
// heavy-tailed rack traffic model (most flows tiny, most bytes in
// elephants).
type Pareto struct {
	// Alpha is the shape (1.05–2 is typical; smaller = heavier tail).
	Alpha float64
	// MinBytes is the scale (smallest flow).
	MinBytes int64
	// MaxBytes truncates the tail (0 = no bound).
	MaxBytes int64
}

// Sample draws one size.
func (p Pareto) Sample(rng *sim.RNG) int64 {
	return p.clamp(rng.Pareto(p.Alpha, float64(p.MinBytes)))
}

// SampleU maps a uniform draw to a size via the closed-form Pareto quantile.
func (p Pareto) SampleU(u float64) int64 {
	// The quantile is xm/(1-F)^(1/alpha); u is uniform so 1-u works as well
	// and keeps u=0 the minimum rather than a division by zero.
	return p.clamp(float64(p.MinBytes) / math.Pow(1-u, 1/p.Alpha))
}

// clamp applies the truncation and the ≥ 1 floor in float64, before
// converting: a float64 beyond int64's range converts to an unspecified
// value (on amd64, one that the floor turned into a 1-byte flow).
func (p Pareto) clamp(v float64) int64 {
	switch {
	case p.MaxBytes > 0 && v > float64(p.MaxBytes):
		return p.MaxBytes
	case v >= math.MaxInt64:
		return math.MaxInt64
	case v < 1:
		return 1
	}
	return int64(v)
}

// Mean returns the truncated-Pareto mean (approximated analytically for the
// untruncated part; exact enough for load conversion).
func (p Pareto) Mean() float64 {
	if p.Alpha <= 1 {
		// Heavy tail with unbounded mean: fall back to the truncation.
		if p.MaxBytes > 0 {
			return float64(p.MinBytes+p.MaxBytes) / 2
		}
		return float64(p.MinBytes) * 10
	}
	return float64(p.MinBytes) * p.Alpha / (p.Alpha - 1)
}

// Name identifies the distribution.
func (p Pareto) Name() string { return fmt.Sprintf("pareto(a=%g,min=%d)", p.Alpha, p.MinBytes) }

// Empirical samples from a byte-size CDF given as (size, cumulative
// probability) knots with linear interpolation — the standard way to replay
// published datacenter flow-size distributions.
type Empirical struct {
	// Sizes and CDF are parallel, strictly increasing, CDF ending at 1.
	Sizes []int64
	CDF   []float64
	label string
}

// WebSearch returns the canonical web-search-style flow CDF (mice-dominated
// with multi-MB elephants).
func WebSearch() Empirical {
	return Empirical{
		Sizes: []int64{6e3, 13e3, 19e3, 33e3, 53e3, 133e3, 667e3, 1333e3, 3333e3, 6667e3, 20e6, 30e6},
		CDF:   []float64{0.15, 0.2, 0.3, 0.4, 0.53, 0.6, 0.7, 0.8, 0.9, 0.97, 0.99, 1.0},
		label: "websearch",
	}
}

// DataMining returns the canonical data-mining-style flow CDF (even heavier
// tail: 80% of flows under 10 KB, elephants up to 1 GB).
func DataMining() Empirical {
	return Empirical{
		Sizes: []int64{100, 1e3, 2e3, 5e3, 10e3, 100e3, 1e6, 10e6, 100e6, 1e9},
		CDF:   []float64{0.1, 0.5, 0.6, 0.75, 0.8, 0.85, 0.9, 0.96, 0.99, 1.0},
		label: "datamining",
	}
}

// Sample draws one size by inverse-CDF with linear interpolation.
func (e Empirical) Sample(rng *sim.RNG) int64 {
	return e.SampleU(rng.Float64())
}

// SampleU maps a uniform draw to a size by inverse-CDF with linear
// interpolation.
func (e Empirical) SampleU(u float64) int64 {
	i := sort.SearchFloat64s(e.CDF, u)
	if i >= len(e.Sizes) {
		i = len(e.Sizes) - 1
	}
	loSize, loCDF := int64(1), 0.0
	if i > 0 {
		loSize, loCDF = e.Sizes[i-1], e.CDF[i-1]
	}
	hiSize, hiCDF := e.Sizes[i], e.CDF[i]
	if hiCDF <= loCDF {
		return hiSize
	}
	frac := (u - loCDF) / (hiCDF - loCDF)
	v := loSize + int64(frac*float64(hiSize-loSize))
	if v < 1 {
		v = 1
	}
	return v
}

// Mean returns the piecewise-linear mean of the CDF.
func (e Empirical) Mean() float64 {
	var mean float64
	loSize, loCDF := int64(1), 0.0
	for i := range e.Sizes {
		mean += (e.CDF[i] - loCDF) * float64(loSize+e.Sizes[i]) / 2
		loSize, loCDF = e.Sizes[i], e.CDF[i]
	}
	return mean
}

// Name identifies the distribution.
func (e Empirical) Name() string { return e.label }
