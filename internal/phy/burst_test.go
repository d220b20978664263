package phy

import (
	"math"
	"testing"

	"rackfab/internal/sim"
)

func TestBurstChannelValidation(t *testing.T) {
	rng := sim.NewRNG(1)
	cases := []struct {
		good, bad float64
		mg, mb    sim.Duration
	}{
		{-1, 0.5, sim.Millisecond, sim.Millisecond},
		{1e-9, 1e-12, sim.Millisecond, sim.Millisecond}, // bad ≤ good
		{1e-9, 1e-4, 0, sim.Millisecond},
		{1e-9, 1e-4, sim.Millisecond, 0},
	}
	for i, c := range cases {
		if _, err := NewBurstChannel(rng, c.good, c.bad, c.mg, c.mb); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	if _, err := NewBurstChannel(rng, 1e-12, 1e-5, sim.Millisecond, 100*sim.Microsecond); err != nil {
		t.Fatal(err)
	}
}

func TestBurstChannelAlternates(t *testing.T) {
	rng := sim.NewRNG(2)
	c, err := NewBurstChannel(rng, 1e-12, 1e-5, sim.Millisecond, sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	sawGood, sawBad := false, false
	for now := sim.Time(0); now < sim.Time(50*sim.Millisecond); now = now.Add(100 * sim.Microsecond) {
		switch c.BERAt(now) {
		case 1e-12:
			sawGood = true
		case 1e-5:
			sawBad = true
		default:
			t.Fatal("BER outside the two states")
		}
	}
	// The channel starts Good, so a Bad sample means it flipped.
	if !sawGood || !sawBad {
		t.Fatalf("states not both visited: good=%v bad=%v", sawGood, sawBad)
	}
}

func TestBurstChannelDwellFractions(t *testing.T) {
	rng := sim.NewRNG(3)
	// 90% good / 10% bad by dwell.
	c, err := NewBurstChannel(rng, 1e-12, 1e-5, 900*sim.Microsecond, 100*sim.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	badSamples, total := 0, 0
	for now := sim.Time(0); now < sim.Time(2*sim.Second); now = now.Add(10 * sim.Microsecond) {
		if c.BERAt(now) == c.BadBER {
			badSamples++
		}
		total++
	}
	frac := float64(badSamples) / float64(total)
	if math.Abs(frac-0.10) > 0.03 {
		t.Fatalf("bad-state fraction = %v, want ≈0.10", frac)
	}
}

func TestLaneWithBurstChannel(t *testing.T) {
	l := testLink(t, 1)
	rng := sim.NewRNG(4)
	ch, err := NewBurstChannel(rng, 1e-15, 3e-5, 500*sim.Microsecond, 500*sim.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	l.Lanes[0].AttachBurstChannel(ch)
	frameRng := sim.NewRNG(5)
	lost := 0
	const frames = 4000
	for i := 0; i < frames; i++ {
		now := sim.Time(i) * sim.Time(5*sim.Microsecond)
		if l.TransferFrame(frameRng, now, 1500*8) {
			lost++
		}
	}
	// Loss only during bursts: overall ≈ half of the bad-state frame loss
	// 1-(1-3e-5)^12000 ≈ 30% → ≈15% overall.
	frac := float64(lost) / frames
	if frac < 0.05 || frac > 0.25 {
		t.Fatalf("burst loss fraction = %v, want ≈0.15", frac)
	}
}
