// Package telemetry provides the measurement substrate for the fabric
// models: counters, EWMA estimators, log-bucket latency histograms,
// windowed series and exact nearest-rank percentiles.
//
// Every instrument is a plain value with no locking: each simulated world
// (one engine and its fabric) runs on a single goroutine, and the sweep
// pool gives every trial its own world.
//
// The paper's Physical Layer Primitive #5 is "per-lane statistics such as
// bit error rate, latency, and effective bandwidth"; the lane counters in
// phy.LaneStats and the fabric's per-link latency EWMA are built from the
// instruments in this package, and the Closed Ring Control consumes them
// as per-link reports.
package telemetry

// Counter is a monotonically increasing event count (frames, bits, drops).
type Counter struct {
	v int64
}

// Add increments the counter by n (n may not be negative).
func (c *Counter) Add(n int64) {
	if n < 0 {
		panic("telemetry: Counter.Add negative")
	}
	c.v += n
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v++ }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v }

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
