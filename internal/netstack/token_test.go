package netstack

import "testing"

func TestTokenBounds(t *testing.T) {
	// MaxTokenRecords is the largest record count whose token payload
	// still fits one MTU.
	if n := tokenHeaderLen + MaxTokenRecords*linkRecordLen; n > MaxPayload {
		t.Fatalf("%d-record token payload is %d bytes, above the %d-byte MTU", MaxTokenRecords, n, MaxPayload)
	}
	if n := tokenHeaderLen + (MaxTokenRecords+1)*linkRecordLen; n <= MaxPayload {
		t.Fatalf("MaxTokenRecords %d is not the bound: one more record still fits (%d bytes)", MaxTokenRecords, n)
	}
	if got, want := TokenWireBits(MaxTokenRecords), WireBitsForPayload(MaxPayload); got > want {
		t.Fatalf("full token %d bits exceeds a full frame's %d", got, want)
	}
}

func TestTokenWireBitsGrowWithRack(t *testing.T) {
	small := TokenWireBits(24) // 4x4 grid
	large := TokenWireBits(84) // 7x7 grid
	if small >= large {
		t.Fatal("token does not grow with link count")
	}
	// A 24-link token must fit one minimal-ish frame: ≤ 64+24*16 bytes.
	if small > int64((64+24*16+20)*8) {
		t.Fatalf("24-record token unexpectedly large: %d bits", small)
	}
}
