package phy

import (
	"fmt"

	"rackfab/internal/fec"
	"rackfab/internal/sim"
)

// Link is a bundle of lanes over one media span — the paper's unit of
// reconfiguration. PLP #1 (break/bundle) changes how many lanes carry
// switched traffic; PLP #3 (on/off) powers lanes; PLP #4 picks the FEC
// profile; PLP #5's BER counters are each lane's Stats.
type Link struct {
	// LengthM is the physical span in meters.
	LengthM float64
	// Media is the transmission medium.
	Media Media
	// Lanes is the ordered lane bundle.
	Lanes []*Lane

	profile Profile
	fecP    fec.Profile
	loss    lossMemo
}

// lossMemo is a one-entry cache of the FEC loss model: a lane's BER takes
// few distinct values (a burst channel has two), and RS evaluates hundreds
// of Lgamma and Exp terms per call. It lives on the link, not on the
// shared fec.Code values, so parallel trials never share it.
type lossMemo struct {
	code fec.Code
	ber  float64
	bits int
	p    float64
}

// NewLink builds a link of laneCount lanes at laneRate over media. All
// lanes start up with the "none" FEC profile.
func NewLink(media Media, lengthM float64, laneCount int, laneRate float64) (*Link, error) {
	if laneCount <= 0 {
		return nil, fmt.Errorf("phy: a link needs at least one lane")
	}
	if lengthM <= 0 {
		return nil, fmt.Errorf("phy: link length must be positive")
	}
	prof := ProfileOf(media)
	if !prof.SupportsRate(laneRate) {
		return nil, fmt.Errorf("phy: media %v does not support %g bit/s lanes", media, laneRate)
	}
	l := &Link{
		LengthM: lengthM,
		Media:   media,
		profile: prof,
	}
	for i := 0; i < laneCount; i++ {
		l.Lanes = append(l.Lanes, NewLane(i, laneRate))
	}
	none, _ := fec.ProfileByName("none")
	l.fecP = none
	return l, nil
}

// Profile returns the media capability profile.
func (l *Link) Profile() Profile { return l.profile }

// FEC returns the link's current FEC profile.
func (l *Link) FEC() fec.Profile { return l.fecP }

// SetFEC installs a FEC profile (PLP #4). The caller (the PLP executor)
// accounts for the reconfiguration latency.
func (l *Link) SetFEC(p fec.Profile) { l.fecP = p }

// ActiveLanes returns the number of lanes carrying switched traffic.
func (l *Link) ActiveLanes() int {
	n := 0
	for _, lane := range l.Lanes {
		if lane.Carries() {
			n++
		}
	}
	return n
}

// RawRate returns the aggregate signalling rate of active lanes in bit/s.
func (l *Link) RawRate() float64 {
	var sum float64
	for _, lane := range l.Lanes {
		if lane.Carries() {
			sum += lane.Rate
		}
	}
	return sum
}

// EffectiveRate returns post-FEC goodput in bit/s: the paper's "effective
// bandwidth" statistic at link granularity.
func (l *Link) EffectiveRate() float64 { return l.fecP.EffectiveRate(l.RawRate()) }

// Up reports whether the link can carry switched traffic at all.
func (l *Link) Up() bool { return l.ActiveLanes() > 0 }

// PropagationDelay returns the media flight time across the span.
func (l *Link) PropagationDelay() sim.Duration { return l.profile.Propagation(l.LengthM) }

// SerializationDelay returns the time to clock dataBits of payload onto the
// wire, including FEC expansion, striped across active lanes.
func (l *Link) SerializationDelay(dataBits int64) sim.Duration {
	rate := l.EffectiveRate()
	if rate <= 0 {
		panic("phy: serialization on a down link")
	}
	return sim.Transmission(dataBits, rate)
}

// WorstBER returns the maximum true BER across active lanes — a frame is
// striped over all lanes, so the worst lane dominates its fate.
func (l *Link) WorstBER() float64 {
	worst := 0.0
	for _, lane := range l.Lanes {
		if lane.Carries() && lane.BER() > worst {
			worst = lane.BER()
		}
	}
	return worst
}

// TransferFrame runs the channel error model for one frame of dataBits at
// instant now and reports whether the frame was lost. The frame's wire
// bits stripe evenly over the lanes that carry; each such lane counts its
// share and a sampled raw bit-error count in its Stats, so receiver BER
// estimation sees realistic statistics. Loss is decided by the FEC
// profile's analytic post-FEC loss probability at the link's true BER
// (refreshed through any attached burst channel). The RNG draw order is
// fixed: one Binomial per carrying lane in lane order, then one Float64.
func (l *Link) TransferFrame(rng *sim.RNG, now sim.Time, dataBits int64) (lost bool) {
	carrying := 0
	for _, lane := range l.Lanes {
		if lane.Carries() {
			lane.refreshBER(now)
			carrying++
		}
	}
	if carrying == 0 {
		panic("phy: TransferFrame on a down link")
	}
	perLane := int64(float64(dataBits)*l.fecP.Overhead()) / int64(carrying)
	for _, lane := range l.Lanes {
		if lane.Carries() {
			lane.Stats.BitsCarried.Add(perLane)
			lane.Stats.PreFECBitErrors.Add(rng.Binomial(perLane, lane.BER()))
		}
	}
	return rng.Float64() < l.frameLossProb(l.WorstBER(), int(dataBits))
}

// frameLossProb returns the current code's FrameLossProb(ber, bits),
// evaluating it only when the key differs from the last call's.
func (l *Link) frameLossProb(ber float64, bits int) float64 {
	m := &l.loss
	if m.code != l.fecP.Code || m.ber != ber || m.bits != bits {
		*m = lossMemo{code: l.fecP.Code, ber: ber, bits: bits, p: l.fecP.Code.FrameLossProb(ber, bits)}
	}
	return m.p
}

// SplitLanes moves the top (len−keep) lanes out of switched service and
// returns them, implementing the "break" half of PLP #1: a link of N lanes
// becomes a switched link of keep lanes plus a freed group the fabric can
// repurpose (e.g. as a bypass express channel). The freed lanes are set to
// the target state.
func (l *Link) SplitLanes(keep int, freedState LaneState) ([]*Lane, error) {
	if keep < 1 || keep >= len(l.Lanes) {
		return nil, fmt.Errorf("phy: split keep=%d out of range for %d lanes", keep, len(l.Lanes))
	}
	freed := make([]*Lane, 0, len(l.Lanes)-keep)
	for _, lane := range l.Lanes[keep:] {
		if err := lane.SetState(freedState); err != nil {
			return nil, err
		}
		freed = append(freed, lane)
	}
	return freed, nil
}

// BundleLanes returns all lanes to switched service ("bundle" half of
// PLP #1). Lanes come back through training; the caller accounts for
// RetrainTime before marking them up.
func (l *Link) BundleLanes() error {
	for _, lane := range l.Lanes {
		if lane.State() == LaneFailed {
			continue
		}
		if err := lane.SetState(LaneTraining); err != nil {
			return err
		}
	}
	return nil
}
