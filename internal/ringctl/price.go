package ringctl

import (
	"rackfab/internal/power"
	"rackfab/internal/sim"
	"rackfab/internal/telemetry"
)

// The price normalizers.
const (
	// refQueueDelay normalizes queue delay: a link whose mean VOQ delay
	// equals it scores latency weight 1.
	refQueueDelay = 10 * sim.Microsecond
	// refBER normalizes link health: measured BER at refBER scores health
	// weight 1 (and clips above).
	refBER = 1e-6
)

// PriceBook maintains the per-link price tags. A price is a dimensionless
// congestion/latency/health/power composite ≥ 0; zero means an idle,
// healthy, cheap link. Prices are EWMA-smoothed so one noisy epoch cannot
// whipsaw the routing.
type PriceBook struct {
	weights   PriceWeights
	smoothing float64
	prices    []*telemetry.EWMA // by link index; nil until first reported
}

// NewPriceBook returns an empty book.
func NewPriceBook(w PriceWeights, smoothing float64) *PriceBook {
	return &PriceBook{weights: w, smoothing: smoothing}
}

// Update folds one epoch of link reports into the book.
func (b *PriceBook) Update(reports []LinkReport, budget *power.Budget) {
	var powerDenom float64
	if budget != nil && budget.CapW > 0 {
		powerDenom = budget.CapW
	}
	for _, r := range reports {
		raw := b.rawPrice(r, powerDenom)
		if r.Link >= len(b.prices) {
			b.prices = append(b.prices, make([]*telemetry.EWMA, r.Link+1-len(b.prices))...)
		}
		if b.prices[r.Link] == nil {
			b.prices[r.Link] = telemetry.NewEWMA(b.smoothing)
		}
		b.prices[r.Link].Observe(raw)
	}
}

// rawPrice computes one report's instantaneous price.
func (b *PriceBook) rawPrice(r LinkReport, powerDenom float64) float64 {
	if !r.Up {
		// A downed link is infinitely expensive, but the book keeps a
		// large finite price so EWMA recovery works when it returns.
		return 1e6
	}
	latTerm := float64(r.QueueDelay) / float64(refQueueDelay)
	congTerm := r.Utilization * r.Utilization
	healthTerm := r.MeasuredBER / refBER
	if healthTerm > 1e3 {
		healthTerm = 1e3
	}
	powerTerm := 0.0
	if powerDenom > 0 {
		powerTerm = r.PowerW / powerDenom
	}
	return b.weights.Latency*latTerm +
		b.weights.Congestion*congTerm +
		b.weights.Health*healthTerm +
		b.weights.Power*powerTerm
}

// Price returns the smoothed price of a link (0 for unknown links: new
// express channels start cheap by design).
func (b *PriceBook) Price(link int) float64 {
	if link < len(b.prices) && b.prices[link] != nil {
		return b.prices[link].Value()
	}
	return 0
}
