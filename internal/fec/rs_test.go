package fec

import (
	"math"
	"testing"
)

func TestRSParams(t *testing.T) {
	if _, err := NewRS(256, 200); err == nil {
		t.Error("n>255 accepted")
	}
	if _, err := NewRS(255, 0); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := NewRS(255, 255); err == nil {
		t.Error("k=n accepted")
	}
	if _, err := NewRS(255, 240); err == nil {
		t.Error("odd parity accepted")
	}
	c, err := NewRS(255, 239)
	if err != nil {
		t.Fatal(err)
	}
	if c.(*rsCode).t != 8 {
		t.Fatalf("t = %d, want 8", c.(*rsCode).t)
	}
}

func TestBinomialTail(t *testing.T) {
	// Binomial(10, 0.5): P[X > 5] = sum C(10,i)/1024, i=6..10 = 386/1024.
	got := binomialTail(10, 5, 0.5)
	want := 386.0 / 1024.0
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("binomialTail = %v, want %v", got, want)
	}
	if binomialTail(10, 10, 0.5) != 0 {
		t.Fatal("tail above n nonzero")
	}
	if binomialTail(10, 5, 0) != 0 || binomialTail(10, 5, 1) != 1 {
		t.Fatal("degenerate p broken")
	}
	// Tiny p must not underflow to exactly zero for t=0.
	if v := binomialTail(255, 0, 1e-12); v <= 0 {
		t.Fatalf("tiny-p tail underflowed: %v", v)
	}
}

func TestFrameLossProbMonotone(t *testing.T) {
	c := MustRS(255, 239)
	last := 0.0
	for _, ber := range []float64{1e-12, 1e-10, 1e-8, 1e-6, 1e-4} {
		p := c.FrameLossProb(ber, 12000)
		if p < last {
			t.Fatalf("frame loss not monotone in BER at %v", ber)
		}
		if p < 0 || p > 1 {
			t.Fatalf("frame loss out of range: %v", p)
		}
		last = p
	}
	// FEC must beat no-FEC at every BER.
	none := NewNone(239)
	for _, ber := range []float64{1e-8, 1e-6, 1e-5} {
		if c.FrameLossProb(ber, 12000) >= none.FrameLossProb(ber, 12000) {
			t.Fatalf("RS worse than none at BER %v", ber)
		}
	}
}
