package phy

import (
	"fmt"

	"rackfab/internal/sim"
)

// BurstChannel is a Gilbert–Elliott two-state channel model: the lane
// alternates between a Good state (residual BER) and a Bad state (burst
// BER) with exponential dwell times. Burst errors are the regime adaptive
// FEC earns its keep in — a code sized for the average BER drowns during
// bursts, and a code sized for bursts wastes bandwidth the rest of the
// time, which is precisely why the paper makes FEC a *runtime* primitive
// (PLP #4) rather than a provisioning-time constant.
type BurstChannel struct {
	// GoodBER and BadBER are the per-state bit error rates.
	GoodBER, BadBER float64
	// MeanGoodDwell and MeanBadDwell are the mean state durations.
	MeanGoodDwell, MeanBadDwell sim.Duration

	bad      bool
	nextFlip sim.Time
	rng      *sim.RNG
}

// NewBurstChannel validates and returns a channel model. The model starts
// in the Good state; state transitions are sampled lazily as simulation
// time advances past the scheduled flip.
func NewBurstChannel(rng *sim.RNG, goodBER, badBER float64, meanGood, meanBad sim.Duration) (*BurstChannel, error) {
	switch {
	case goodBER < 0 || goodBER > 1 || badBER < 0 || badBER > 1:
		return nil, fmt.Errorf("phy: burst BERs out of [0,1]")
	case badBER <= goodBER:
		return nil, fmt.Errorf("phy: burst BadBER %g must exceed GoodBER %g", badBER, goodBER)
	case meanGood <= 0 || meanBad <= 0:
		return nil, fmt.Errorf("phy: burst dwell times must be positive")
	}
	c := &BurstChannel{
		GoodBER:       goodBER,
		BadBER:        badBER,
		MeanGoodDwell: meanGood,
		MeanBadDwell:  meanBad,
		rng:           rng,
	}
	c.nextFlip = sim.Time(0).Add(rng.ExpDuration(meanGood))
	return c, nil
}

// BERAt returns the channel's BER at the given instant, advancing the
// state machine through any elapsed transitions. Time must not move
// backwards across calls.
func (c *BurstChannel) BERAt(now sim.Time) float64 {
	for now.After(c.nextFlip) || now == c.nextFlip {
		c.bad = !c.bad
		dwell := c.MeanGoodDwell
		if c.bad {
			dwell = c.MeanBadDwell
		}
		c.nextFlip = c.nextFlip.Add(c.rng.ExpDuration(dwell))
	}
	if c.bad {
		return c.BadBER
	}
	return c.GoodBER
}

// AttachBurstChannel installs a burst model on a lane: the lane's BER is
// refreshed from the channel on every frame transfer.
func (l *Lane) AttachBurstChannel(c *BurstChannel) { l.burst = c }

// refreshBER advances any attached burst channel to now.
func (l *Lane) refreshBER(now sim.Time) {
	if l.burst != nil {
		l.ber = l.burst.BERAt(now)
	}
}
