package phy

import (
	"fmt"

	"rackfab/internal/telemetry"
)

// LaneState is the operational state of a physical lane.
type LaneState int

// Lane states. Training models SerDes bring-up after power-on or
// re-bundling; Bypassed lanes carry a physical-layer express path and are
// invisible to the local switch.
const (
	LaneOff LaneState = iota
	LaneTraining
	LaneUp
	LaneBypassed
	LaneFailed
)

// String returns the state name.
func (s LaneState) String() string {
	switch s {
	case LaneOff:
		return "off"
	case LaneTraining:
		return "training"
	case LaneUp:
		return "up"
	case LaneBypassed:
		return "bypassed"
	case LaneFailed:
		return "failed"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// LaneStats is the per-lane statistics block of PLP #5: "per-lane
// statistics such as: bit error rate, latency, and effective bandwidth".
// Only the bit error rate is kept per lane: the fabric turns these two
// counters into each link's windowed ringctl.LinkReport.MeasuredBER for the
// Closed Ring Control. Latency is reported per link as LinkReport.QueueDelay,
// from the fabric's per-link queue-delay EWMA, and effective bandwidth per
// link as Link.EffectiveRate.
type LaneStats struct {
	// BitsCarried counts wire bits (FEC expansion included) the lane
	// carried.
	BitsCarried telemetry.Counter
	// PreFECBitErrors counts raw channel bit errors seen by the receiver.
	PreFECBitErrors telemetry.Counter
}

// Lane is one physical lane: a serial channel at a fixed signalling rate.
type Lane struct {
	// Index is the lane's position within its link bundle.
	Index int
	// Rate is the signalling rate in bit/s.
	Rate float64
	// State is the operational state; mutate via SetState.
	state LaneState
	// BER is the true underlying channel bit error rate (ground truth used
	// by the error model; the CRC only ever sees MeasuredBER).
	ber float64
	// burst optionally drives ber through a Gilbert–Elliott model.
	burst *BurstChannel
	// Stats is the PLP #5 statistics block.
	Stats LaneStats
}

// NewLane returns an up lane at the given rate with a pristine channel.
func NewLane(index int, rate float64) *Lane {
	if rate <= 0 {
		panic("phy: lane rate must be positive")
	}
	return &Lane{Index: index, Rate: rate, state: LaneUp, ber: 1e-15}
}

// State returns the lane's operational state.
func (l *Lane) State() LaneState { return l.state }

// SetState transitions the lane. Transitions out of LaneFailed other than
// to LaneOff are rejected: failed hardware needs replacing, not commanding.
func (l *Lane) SetState(s LaneState) error {
	if l.state == LaneFailed && s != LaneOff && s != LaneFailed {
		return fmt.Errorf("phy: lane %d failed; cannot enter %v", l.Index, s)
	}
	l.state = s
	return nil
}

// BER returns the true channel bit error rate.
func (l *Lane) BER() float64 { return l.ber }

// SetBER sets the true channel bit error rate (fault injection and channel
// degradation scenarios).
func (l *Lane) SetBER(ber float64) {
	if ber < 0 || ber > 1 {
		panic("phy: BER out of [0,1]")
	}
	l.ber = ber
}

// Carries reports whether the lane is currently carrying switched traffic.
func (l *Lane) Carries() bool { return l.state == LaneUp }
