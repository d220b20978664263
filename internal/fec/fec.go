// Package fec models the forward-error-correction substrate behind the
// paper's Physical Layer Primitive #4, "adaptive forward error correction".
//
// Real 100G links run IEEE 802.3 RS-FEC over GF(2^10) (KR4: RS(528,514),
// KP4: RS(544,514)). The ladder here uses the same code family over GF(2^8)
// — RS(255,239) with t=8 and RS(255,223) with t=16 — plus a Hamming(72,64)
// SECDED code for the low-latency end and a pass-through "none" profile.
// The simulator never encodes or decodes bits: a code is its block shape
// (k data bytes carried in n coded bytes, which sets the bandwidth
// overhead) and an analytic post-decode frame-loss probability under
// independent bit errors. The adaptive controller trades each profile's
// overhead and latency against that loss probability at the measured bit
// error rate, which is exactly the decision the paper's CRC makes per lane.
package fec

import "rackfab/internal/sim"

// Code is a systematic block code over bytes, reduced to what the simulator
// uses: its block shape and its analytic loss model.
type Code interface {
	// Name identifies the code in reports and CRC decisions.
	Name() string
	// DataLen is the number of payload bytes per block (k).
	DataLen() int
	// BlockLen is the number of coded bytes per block (n).
	BlockLen() int
	// FrameLossProb returns the probability that a frame of frameBits data
	// bits is lost after decoding, given an independent bit error rate on
	// the wire. It is the analytic model the adaptive controller uses.
	FrameLossProb(ber float64, frameBits int) float64
}

// noneCode is the pass-through profile: zero overhead, zero correction.
type noneCode struct{ k int }

// NewNone returns a pass-through "code" operating on k-byte blocks.
func NewNone(k int) Code {
	if k <= 0 {
		panic("fec: NewNone k must be positive")
	}
	return noneCode{k}
}

func (c noneCode) Name() string  { return "none" }
func (c noneCode) DataLen() int  { return c.k }
func (c noneCode) BlockLen() int { return c.k }

func (c noneCode) FrameLossProb(ber float64, frameBits int) float64 {
	// Without FEC any bit error loses the frame (FCS catches it).
	return frameErrorProb(ber, frameBits)
}

// Profile bundles a code with its physical costs. The costs are what the
// Closed Ring Control weighs: overhead shrinks effective bandwidth, latency
// adds a fixed pipeline delay per hop, and power counts against the rack
// budget.
type Profile struct {
	Code Code
	// Latency is the added encode+decode pipeline delay per traversal.
	Latency sim.Duration
	// PowerW is the additional power drawn per port with this profile on.
	PowerW float64
}

// Name returns the underlying code name.
func (p Profile) Name() string { return p.Code.Name() }

// Overhead returns wire bits per data bit (n/k ≥ 1).
func (p Profile) Overhead() float64 {
	return float64(p.Code.BlockLen()) / float64(p.Code.DataLen())
}

// EffectiveRate converts a raw lane rate into post-FEC goodput.
func (p Profile) EffectiveRate(raw float64) float64 { return raw / p.Overhead() }

// Ladder returns the standard profile ladder ordered by increasing added
// latency and correction strength: none, SECDED, RS t=8, RS t=16. The
// adaptive controller walks this ladder and picks the first profile whose
// predicted post-FEC loss meets the target, i.e. it minimizes pipeline
// latency subject to the reliability constraint — the same objective the
// paper's CRC optimizes ("improve the target metric, e.g. latency").
func Ladder() []Profile {
	return []Profile{
		{Code: NewNone(239), Latency: 0, PowerW: 0},
		{Code: NewHamming7264(), Latency: 15 * sim.Nanosecond, PowerW: 0.10},
		{Code: MustRS(255, 239), Latency: 60 * sim.Nanosecond, PowerW: 0.30},
		{Code: MustRS(255, 223), Latency: 110 * sim.Nanosecond, PowerW: 0.45},
	}
}

// ProfileByName finds a ladder profile; it reports ok=false when absent.
func ProfileByName(name string) (Profile, bool) {
	for _, p := range Ladder() {
		if p.Name() == name {
			return p, true
		}
	}
	return Profile{}, false
}
