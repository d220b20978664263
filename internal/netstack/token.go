package netstack

// This file sizes the Closed Ring Control's telemetry token: the control
// frame that circulates through every node each epoch, accumulating one
// record per link (PLP #5 statistics). The token's size matters because
// the ring round-trip — the control loop's feedback delay — grows with the
// token's serialization time at every hop, and the token grows linearly
// with the rack's link count.

// linkRecordLen is the encoded size of one link's record: link ID (4
// bytes), utilization in 1/1000ths (2), mean VOQ delay in ns (4), BER
// exponent (1), active and total lanes (1 each), draw in 0.1 W (2) and
// flags (1).
const linkRecordLen = 4 + 2 + 4 + 1 + 1 + 1 + 2 + 1

// tokenHeaderLen covers the epoch sequence number (4 bytes), the origin
// node (2) and the record count (2).
const tokenHeaderLen = 4 + 2 + 2

// MaxTokenRecords bounds a token to one MTU.
var MaxTokenRecords = (MaxPayload - tokenHeaderLen) / linkRecordLen

// TokenWireBits returns the full line bits of a token carrying the given
// number of link records in an Ethernet frame (header, FCS, padding,
// preamble, IFG included).
func TokenWireBits(records int) int64 {
	return WireBitsForPayload(tokenHeaderLen + records*linkRecordLen)
}
