package ringctl

import (
	"math"

	"rackfab/internal/sim"
)

// This file is the paper's named optimization: "The problem that arises in
// all reconfigurable fabrics is finding the minimum flow size for which
// reconfiguration is worth the cost."
//
// Derivation. A flow with S bytes remaining currently delivers at r_b
// bit/s. A reconfiguration (bypass, re-bundling, topology change) costs a
// setup time C during which the flow gains nothing, after which it
// delivers at r_a > r_b. Reconfiguring wins iff
//
//	8S/r_b  >  C + 8S/r_a
//	8S (1/r_b − 1/r_a)  >  C
//	S  >  C · r_b·r_a / (8 (r_a − r_b))  =  σ*
//
// σ* grows linearly in the setup cost and diverges as the speedup
// disappears — the two asymptotes experiment E5 sweeps.

// MinFlowSize returns σ*, the smallest remaining flow size (bytes) for
// which paying setup to move from rateBefore to rateAfter (bit/s) reduces
// completion time. It returns math.MaxInt64 when the move never pays
// (rateAfter ≤ rateBefore).
func MinFlowSize(setup sim.Duration, rateBefore, rateAfter float64) int64 {
	if rateAfter <= rateBefore || rateBefore <= 0 {
		return math.MaxInt64
	}
	s := setup.Seconds() * rateBefore * rateAfter / (8 * (rateAfter - rateBefore))
	if s >= float64(math.MaxInt64) {
		return math.MaxInt64
	}
	if s < 0 {
		return 0
	}
	return int64(math.Ceil(s))
}

// Worthwhile reports whether a flow with bytesRemaining left justifies the
// reconfiguration, and the expected completion-time saving.
func Worthwhile(bytesRemaining int64, setup sim.Duration, rateBefore, rateAfter float64) (bool, sim.Duration) {
	if rateAfter <= rateBefore || rateBefore <= 0 || bytesRemaining <= 0 {
		return false, 0
	}
	before := float64(bytesRemaining) * 8 / rateBefore
	after := setup.Seconds() + float64(bytesRemaining)*8/rateAfter
	saving := before - after
	return saving > 0, sim.Seconds(saving)
}
