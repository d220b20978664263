// Package phy models the physical layer of the rack fabric: media, lanes,
// and links-as-lane-bundles.
//
// The paper's canonical example is "a 100Gbps link that is made from four
// 25Gbps physical links", with wavelength-division multiplexing called out
// as an equivalent. phy therefore treats a Link as an ordered bundle of
// Lanes over one Media; every Physical Layer Primitive in internal/plp
// bottoms out in state changes on these types. The architecture is
// explicitly media agnostic — "the specific underlying media is irrelevant.
// We only expect it to provide some subset of the Physical Layer
// Primitives" — so each Media carries a capability profile rather than
// special-cased behaviour.
package phy

import (
	"fmt"

	"rackfab/internal/sim"
)

// Media identifies the underlying transmission medium of a link.
type Media int

// Supported media. ProjecToR-class free-space optics and Shoal-class
// electrical circuit fabrics (the two systems the paper cites as PLP
// sources) map onto OpticalFiber and Backplane respectively.
const (
	// Backplane is an electrical backplane or PCB trace fabric (Shoal-class
	// circuit switching: nanosecond-scale reconfiguration).
	Backplane Media = iota
	// CopperDAC is a direct-attach copper cable.
	CopperDAC
	// OpticalFiber is single-mode fiber with optical circuit elements
	// (ProjecToR-class: tens of microseconds to retarget).
	OpticalFiber
)

// String returns the media name.
func (m Media) String() string {
	switch m {
	case Backplane:
		return "backplane"
	case CopperDAC:
		return "copper-dac"
	case OpticalFiber:
		return "optical-fiber"
	default:
		return fmt.Sprintf("media(%d)", int(m))
	}
}

// Profile describes the physics and PLP capability set of a media type.
type Profile struct {
	Media Media
	// PropagationPerMeter is the signal flight time per meter.
	PropagationPerMeter sim.Duration
	// LaneRates lists the supported per-lane signalling rates in bit/s,
	// slowest first.
	LaneRates []float64
	// LanePowerW is the power drawn by one active lane end (SerDes+driver).
	LanePowerW float64
	// BypassLanePowerW is the power of a lane in bypass mode (retiming
	// only, no SerDes-to-MAC path).
	BypassLanePowerW float64
	// PerNodeBypassLatency is the added delay when a bypassed node is
	// crossed at the physical layer (retimer only, no switch traversal).
	PerNodeBypassLatency sim.Duration
	// RetrainTime is lane bring-up time (power-on or after re-bundling).
	RetrainTime sim.Duration
	// BypassSetup is the time to establish or tear down a bypass.
	BypassSetup sim.Duration
	// ReshapeTime is the time to break or bundle a link's lanes.
	ReshapeTime sim.Duration
	// SupportsBypass reports PLP #2 availability on this media.
	SupportsBypass bool
}

// profiles holds the default per-media calibration.
var profiles = map[Media]Profile{
	Backplane: {
		Media:                Backplane,
		PropagationPerMeter:  5600 * sim.Picosecond, // 5.6 ns/m stripline
		LaneRates:            []float64{10e9, 25.78125e9},
		LanePowerW:           0.75,
		BypassLanePowerW:     0.05,
		PerNodeBypassLatency: 8 * sim.Nanosecond,
		RetrainTime:          100 * sim.Microsecond,
		BypassSetup:          1 * sim.Microsecond, // Shoal-class electrical
		ReshapeTime:          5 * sim.Microsecond,
		SupportsBypass:       true,
	},
	CopperDAC: {
		Media:                CopperDAC,
		PropagationPerMeter:  4300 * sim.Picosecond, // 4.3 ns/m coax
		LaneRates:            []float64{10e9, 25.78125e9},
		LanePowerW:           0.60,
		BypassLanePowerW:     0.05,
		PerNodeBypassLatency: 8 * sim.Nanosecond,
		RetrainTime:          100 * sim.Microsecond,
		BypassSetup:          2 * sim.Microsecond,
		ReshapeTime:          5 * sim.Microsecond,
		SupportsBypass:       false, // passive cable: no mid-span tap
	},
	OpticalFiber: {
		Media:                OpticalFiber,
		PropagationPerMeter:  4900 * sim.Picosecond, // 4.9 ns/m in glass
		LaneRates:            []float64{10e9, 25.78125e9, 53.125e9},
		LanePowerW:           1.00,
		BypassLanePowerW:     0.08,
		PerNodeBypassLatency: 5 * sim.Nanosecond,
		RetrainTime:          50 * sim.Microsecond,
		BypassSetup:          25 * sim.Microsecond, // ProjecToR-class optics
		ReshapeTime:          25 * sim.Microsecond,
		SupportsBypass:       true,
	},
}

// ProfileOf returns the capability profile for a media type.
func ProfileOf(m Media) Profile {
	p, ok := profiles[m]
	if !ok {
		panic(fmt.Sprintf("phy: unknown media %d", int(m)))
	}
	return p
}

// SupportsRate reports whether the media can clock a lane at rate.
func (p Profile) SupportsRate(rate float64) bool {
	for _, r := range p.LaneRates {
		if r == rate {
			return true
		}
	}
	return false
}

// Propagation returns the flight time across length meters of this media.
func (p Profile) Propagation(lengthM float64) sim.Duration {
	return sim.Duration(float64(p.PropagationPerMeter) * lengthM)
}
