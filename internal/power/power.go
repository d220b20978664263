// Package power models the rack's power envelope.
//
// "Rack-scale systems inherit the power budget of a traditional rack" — the
// fabric must deliver performance inside a fixed cap. This package prices
// the fabric's physical state (lanes, switch ports, FEC engines) in watts,
// integrates energy over simulated time, and exposes the budget headroom
// signal the Closed Ring Control's power-capping policy acts on (turning
// lanes off via PLP #3 is the actuator).
package power

import (
	"fmt"

	"rackfab/internal/phy"
	"rackfab/internal/sim"
)

// The switching logic's power calibration. Lane and bypass power come from
// each link's media profile; these constants cover the switching logic the
// paper wants packets to avoid.
const (
	// SwitchPortCoreW is the per-port power of the switching logic (MAC,
	// buffering, crossbar share) while the port is active.
	SwitchPortCoreW = 1.10
	// SwitchIdleW is the per-node base power of the switch core.
	SwitchIdleW = 4.0
	// HostNICW is the per-node NIC power.
	HostNICW = 3.5
)

// LinkPower prices a link's current physical state in watts: both ends of
// every lane at the media's active/bypass draw, plus both ends' FEC engines
// when a profile heavier than "none" is installed.
func LinkPower(l *phy.Link) float64 {
	prof := l.Profile()
	var w float64
	for _, lane := range l.Lanes {
		switch lane.State() {
		case phy.LaneUp, phy.LaneTraining:
			w += 2 * prof.LanePowerW
		case phy.LaneBypassed:
			w += 2 * prof.BypassLanePowerW
		case phy.LaneOff, phy.LaneFailed:
			// dark lane: zero
		}
	}
	if l.FEC().Name() != "none" && l.ActiveLanes() > 0 {
		w += 2 * l.FEC().PowerW
	}
	return w
}

// NodePower prices one node's switch+NIC at the given active port count.
func NodePower(activePorts int) float64 {
	return SwitchIdleW + HostNICW + float64(activePorts)*SwitchPortCoreW
}

// Budget tracks consumption against the rack cap and integrates energy.
type Budget struct {
	// CapW is the rack power cap; 0 means uncapped.
	CapW float64

	lastAt    sim.Time
	lastWatts float64
	energyJ   float64
	peakW     float64
	overTime  sim.Duration
	over      bool
	started   bool
}

// NewBudget returns a budget with the given cap in watts (0 = uncapped).
func NewBudget(capW float64) *Budget {
	if capW < 0 {
		panic("power: negative budget cap")
	}
	return &Budget{CapW: capW}
}

// Observe records that total draw is watts as of now. Observations must be
// time-ordered; energy is integrated with the zero-order hold between
// samples (draw is constant until re-observed, which matches how the
// fabric samples on every state change).
func (b *Budget) Observe(now sim.Time, watts float64) {
	if watts < 0 {
		panic(fmt.Sprintf("power: negative draw %v", watts))
	}
	if b.started {
		if now < b.lastAt {
			panic("power: observations out of order")
		}
		dt := now.Sub(b.lastAt)
		b.energyJ += b.lastWatts * dt.Seconds()
		if b.over {
			b.overTime += dt
		}
	}
	b.started = true
	b.lastAt = now
	b.lastWatts = watts
	if watts > b.peakW {
		b.peakW = watts
	}
	b.over = b.CapW > 0 && watts > b.CapW
}

// CurrentW returns the last observed draw.
func (b *Budget) CurrentW() float64 { return b.lastWatts }

// PeakW returns the highest observed draw.
func (b *Budget) PeakW() float64 { return b.peakW }

// EnergyJ returns the integrated consumption up to the last observation.
func (b *Budget) EnergyJ() float64 { return b.energyJ }

// OverTime returns total time spent above the cap.
func (b *Budget) OverTime() sim.Duration { return b.overTime }

// HeadroomW returns cap − current (positive means slack). Uncapped budgets
// report +Inf-like large headroom via ok=false.
func (b *Budget) HeadroomW() (w float64, capped bool) {
	if b.CapW == 0 {
		return 0, false
	}
	return b.CapW - b.lastWatts, true
}
