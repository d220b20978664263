package fec

import "testing"

func TestHammingShape(t *testing.T) {
	c := NewHamming7264()
	if c.DataLen() != 8 || c.BlockLen() != 9 {
		t.Fatalf("shape %d/%d", c.DataLen(), c.BlockLen())
	}
}

func TestHammingLossModel(t *testing.T) {
	c := NewHamming7264()
	none := NewNone(8)
	// SECDED must beat no-FEC for small BER.
	for _, ber := range []float64{1e-9, 1e-7, 1e-6} {
		if c.FrameLossProb(ber, 12000) >= none.FrameLossProb(ber, 12000) {
			t.Fatalf("secded worse than none at %v", ber)
		}
	}
	if c.FrameLossProb(0, 12000) != 0 {
		t.Fatal("zero BER loses frames")
	}
}
