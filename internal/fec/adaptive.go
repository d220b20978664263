package fec

// Adaptive selects FEC profiles from measured bit error rates. It is the
// per-lane decision engine behind PLP #4: pick the lightest profile (least
// overhead, least latency) whose predicted post-FEC frame loss meets the
// target, with hysteresis so estimation noise near a boundary does not make
// the lane flap between profiles (each switch costs a reconfiguration).
type Adaptive struct {
	ladder    []Profile
	targetFLR float64
	// hysteresis: only step down (to a lighter profile) when the lighter
	// profile's predicted loss is below target/hysteresis.
	hysteresis float64
	// dwell: de-escalate only after this many consecutive picks wanting a
	// lighter profile. On bursty channels whose clean gaps are longer
	// than the measurement epoch, a small dwell flaps (escalate in the
	// burst, relax in the gap, pay the switch downtime twice per cycle);
	// the dwell trades re-escalation risk against flap cost.
	dwell       int
	cleanStreak int
	current     int
}

// DefaultTargetFLR is the default post-FEC frame-loss objective: about one
// lost frame per 10^9, the reliability class of a healthy electrical link.
const DefaultTargetFLR = 1e-9

// DefaultDeescalateDwell is the default number of consecutive clean picks
// before the controller steps down the ladder.
const DefaultDeescalateDwell = 8

// NewAdaptiveDwell returns a controller with an explicit de-escalation
// dwell (≥1). Large dwells suit bursty channels (see experiment E9).
func NewAdaptiveDwell(targetFLR float64, dwell int) *Adaptive {
	if targetFLR <= 0 {
		targetFLR = DefaultTargetFLR
	}
	if dwell < 1 {
		dwell = 1
	}
	return &Adaptive{
		ladder:     Ladder(),
		targetFLR:  targetFLR,
		hysteresis: 5,
		dwell:      dwell,
		current:    0,
	}
}

// Pick returns the profile for the measured BER and frame size, updating
// the controller state. The returned bool reports whether the selection
// changed (i.e. the CRC must issue a SetFEC primitive).
func (a *Adaptive) Pick(ber float64, frameBits int) (Profile, bool) {
	want := a.lightest(ber, frameBits, a.targetFLR)
	switch {
	case want > a.current:
		// Escalate immediately: the link is losing frames right now.
		a.current = want
		a.cleanStreak = 0
		return a.ladder[a.current], true
	case want < a.current:
		// De-escalate only when the lighter profile meets the target with
		// margin (estimation noise near a boundary must not flap the
		// lane) and the channel has looked clean for a full dwell (a
		// burst gap must not bait the controller into paying two switch
		// downtimes per burst cycle).
		if a.ladder[want].Code.FrameLossProb(ber, frameBits) <= a.targetFLR/a.hysteresis {
			a.cleanStreak++
			if a.cleanStreak >= a.dwell {
				a.current = want
				a.cleanStreak = 0
				return a.ladder[a.current], true
			}
		} else {
			a.cleanStreak = 0
		}
	default:
		a.cleanStreak = 0
	}
	return a.ladder[a.current], false
}

// lightest returns the index of the lightest profile meeting the target,
// or the heaviest profile when none does.
func (a *Adaptive) lightest(ber float64, frameBits int, target float64) int {
	for i, p := range a.ladder {
		if p.Code.FrameLossProb(ber, frameBits) <= target {
			return i
		}
	}
	return len(a.ladder) - 1
}
