// Package netstack implements the unmodified network layer riding on the
// adaptive fabric.
//
// The paper's first architectural commitment is backwards compatibility:
// "No restructuring of the network layer is needed. In particular, existing
// applications benefit from the architecture with no required change." The
// fabric therefore carries ordinary Ethernet II frames — 14-byte header,
// IEEE CRC-32 FCS, 64-byte minimum — and everything adaptive happens
// beneath them. The simulator never builds frame bytes: it models a frame
// by its size on the wire, which is all the phy layer needs to serialize
// it. This package holds those size formulas for data frames and for the
// Closed Ring Control's telemetry token, plus the receiver-driven token
// pacer.
package netstack

// Ethernet wire constants.
const (
	headerLen   = 14 // dst + src + type
	fcsLen      = 4
	minFrameLen = 64 // including FCS
	MaxPayload  = 1500
	// WireOverheadBytes is the per-frame line overhead outside the frame
	// bytes themselves: 7 preamble + 1 SFD + 12 inter-frame gap.
	WireOverheadBytes = 20
)

// WireBitsForPayload returns the line bits of an untagged frame carrying a
// payload of n bytes, including minimum-size padding, FCS, preamble and
// inter-frame gap. The NIC model uses it to size flow slices.
func WireBitsForPayload(n int) int64 {
	if n < 0 {
		panic("netstack: negative payload length")
	}
	frame := headerLen + n + fcsLen
	if frame < minFrameLen {
		frame = minFrameLen
	}
	return int64(frame+WireOverheadBytes) * 8
}

// WireBitsForTrain returns the total line bits of a train of untagged
// frames jointly carrying a payload of n bytes sliced at MaxPayload
// boundaries: full-MTU frames plus one remainder frame, each with its own
// header, FCS, padding, preamble and inter-frame gap. The NIC model batches
// consecutive same-flow frames into one train event but must charge the
// wire exactly what per-frame transmission would have — a train is
// scheduling coalescing, not header compression.
func WireBitsForTrain(n int) int64 {
	if n < 0 {
		panic("netstack: negative payload length")
	}
	full := n / MaxPayload
	bits := int64(full) * WireBitsForPayload(MaxPayload)
	if rem := n - full*MaxPayload; rem > 0 {
		bits += WireBitsForPayload(rem)
	}
	return bits
}
