package netstack

import "testing"

func TestMinimumFramePadding(t *testing.T) {
	// A 3-byte payload pads to the 64-byte minimum frame; an empty one
	// costs the same on the wire.
	want := int64((64 + WireOverheadBytes) * 8)
	for _, n := range []int{0, 3, 46} {
		if got := WireBitsForPayload(n); got != want {
			t.Fatalf("WireBitsForPayload(%d) = %d, want %d (padded minimum frame)", n, got, want)
		}
	}
	if got := WireBitsForPayload(47); got != want+8 {
		t.Fatalf("WireBitsForPayload(47) = %d, want %d (one byte past the pad)", got, want+8)
	}
}

func TestWireBits(t *testing.T) {
	// 1500 payload + 14 header + 4 FCS + 20 preamble/IFG = 1538 bytes.
	if got := WireBitsForPayload(1500); got != 1538*8 {
		t.Fatalf("WireBitsForPayload(1500) = %d, want %d", got, 1538*8)
	}
}
