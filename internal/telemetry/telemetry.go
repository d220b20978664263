// Package telemetry provides the measurement substrate for the fabric
// models: counters, gauges, EWMA estimators, log-bucket latency
// histograms, windowed series and exact nearest-rank percentiles.
//
// The paper's Physical Layer Primitive #5 is "per-lane statistics such as
// bit error rate, latency, and effective bandwidth"; those lane statistics
// (phy.LaneStats) are built from the estimators in this package, and the
// Closed Ring Control consumes them through the telemetry snapshot types.
package telemetry

import (
	"math"
	"sync/atomic"
)

// Counter is a monotonically increasing event count (frames, bits, drops).
// It is atomic so the rare cross-goroutine readers (progress reporting in
// examples) never tear a read; the hot path is still a single-threaded add.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n (n may not be negative).
func (c *Counter) Add(n int64) {
	if n < 0 {
		panic("telemetry: Counter.Add negative")
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a point-in-time level (queue depth, power draw, price).
type Gauge struct {
	bits atomic.Uint64
}

// Set stores the current level.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current level.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// EWMA is an exponentially weighted moving average with configurable weight
// for new observations. It is the smoother used for link latency and
// utilization feeding the CRC price function.
type EWMA struct {
	alpha  float64
	value  float64
	primed bool
}

// NewEWMA returns an estimator that weighs each new observation by alpha
// (0 < alpha ≤ 1). Larger alpha tracks faster and forgets faster.
func NewEWMA(alpha float64) *EWMA {
	if alpha <= 0 || alpha > 1 {
		panic("telemetry: EWMA alpha out of (0,1]")
	}
	return &EWMA{alpha: alpha}
}

// Observe folds a new sample into the average. The first sample primes the
// estimator directly so start-up is not biased toward zero.
func (e *EWMA) Observe(v float64) {
	if !e.primed {
		e.value = v
		e.primed = true
		return
	}
	e.value += e.alpha * (v - e.value)
}

// Value returns the current smoothed estimate (zero before any sample).
func (e *EWMA) Value() float64 { return e.value }

// Primed reports whether at least one sample has been observed.
func (e *EWMA) Primed() bool { return e.primed }
