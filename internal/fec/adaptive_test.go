package fec

import (
	"testing"
)

func TestLadderOrdering(t *testing.T) {
	ladder := Ladder()
	if len(ladder) != 4 {
		t.Fatalf("ladder size %d", len(ladder))
	}
	const ber, frameBits = 1e-6, 12000
	for i := 1; i < len(ladder); i++ {
		if ladder[i].Latency < ladder[i-1].Latency {
			t.Fatalf("ladder latency not nondecreasing at %d", i)
		}
		// Correction strength must increase along the ladder: each step up
		// loses strictly fewer frames at a fixed BER.
		if ladder[i].Code.FrameLossProb(ber, frameBits) >= ladder[i-1].Code.FrameLossProb(ber, frameBits) {
			t.Fatalf("ladder loss not decreasing at %d", i)
		}
		if ladder[i].Overhead() < 1 {
			t.Fatalf("overhead below 1 at %d", i)
		}
	}
	if ladder[0].Name() != "none" {
		t.Fatalf("ladder[0] = %s", ladder[0].Name())
	}
}

func TestProfileByName(t *testing.T) {
	if _, ok := ProfileByName("rs(255,239)"); !ok {
		t.Fatal("rs(255,239) missing")
	}
	if _, ok := ProfileByName("bogus"); ok {
		t.Fatal("bogus profile found")
	}
}

func TestAdaptiveEscalatesWithBER(t *testing.T) {
	a := NewAdaptiveDwell(1e-9, DefaultDeescalateDwell)
	const frameBits = 12000

	// Pristine link: none.
	p, changed := a.Pick(1e-15, frameBits)
	if p.Name() != "none" {
		t.Fatalf("pristine pick = %s", p.Name())
	}
	if changed {
		t.Fatal("initial pick should not report change")
	}

	// Degrading link escalates monotonically up the ladder.
	lastIdx := 0
	for _, ber := range []float64{1e-10, 1e-8, 1e-6, 1e-5, 1e-4} {
		p, _ = a.Pick(ber, frameBits)
		idx := indexOf(Ladder(), p.Name())
		if idx < lastIdx {
			t.Fatalf("de-escalated to %s at BER %v", p.Name(), ber)
		}
		lastIdx = idx
	}
	if lastIdx == 0 {
		t.Fatal("never escalated despite BER 1e-4")
	}
}

func TestAdaptiveMeetsTarget(t *testing.T) {
	a := NewAdaptiveDwell(1e-9, DefaultDeescalateDwell)
	const frameBits = 12000
	for _, ber := range []float64{1e-12, 1e-9, 1e-7, 1e-6} {
		p, _ := a.Pick(ber, frameBits)
		if loss := p.Code.FrameLossProb(ber, frameBits); loss > 1e-9 {
			// Unless even the heaviest profile cannot meet it.
			heaviest := Ladder()[len(Ladder())-1]
			if p.Name() != heaviest.Name() {
				t.Fatalf("BER %v: picked %s with loss %v > target", ber, p.Name(), loss)
			}
		}
	}
}

func TestAdaptiveHysteresis(t *testing.T) {
	a := NewAdaptiveDwell(1e-9, DefaultDeescalateDwell)
	const frameBits = 12000
	// Drive up…
	if up, _ := a.Pick(1e-5, frameBits); up.Name() == "none" {
		t.Fatal("did not escalate")
	}
	// …then improve the BER slightly past the escalation boundary: with
	// hysteresis the controller must hold the heavier profile at a BER that
	// is only marginally better.
	boundary := findEscalationBoundary(Ladder(), frameBits)
	_, changed := a.Pick(boundary*0.99, frameBits)
	if changed {
		t.Fatal("flapped down within hysteresis band")
	}
	// A dramatic improvement de-escalates only after the dwell: a single
	// clean reading is a burst gap, not a repaired channel.
	p, changed2 := a.Pick(1e-15, frameBits)
	if changed2 || p.Name() == "none" {
		t.Fatal("de-escalated on the first clean reading")
	}
	for i := 0; i < DefaultDeescalateDwell; i++ {
		p, _ = a.Pick(1e-15, frameBits)
	}
	if p.Name() != "none" {
		t.Fatalf("did not de-escalate after dwell: %s", p.Name())
	}
}

// findEscalationBoundary locates a BER where profile 0 first fails 1e-9.
func findEscalationBoundary(ladder []Profile, frameBits int) float64 {
	lo, hi := 1e-15, 1e-3
	for i := 0; i < 60; i++ {
		mid := (lo + hi) / 2
		if ladder[0].Code.FrameLossProb(mid, frameBits) > 1e-9 {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi
}

func indexOf(ladder []Profile, name string) int {
	for i, p := range ladder {
		if p.Name() == name {
			return i
		}
	}
	return -1
}

func TestAdaptiveDwellBlocksFlapping(t *testing.T) {
	a := NewAdaptiveDwell(1e-9, 4)
	const frameBits = 12000
	if p, _ := a.Pick(1e-5, frameBits); p.Name() == "none" {
		t.Fatal("did not escalate")
	}
	// Alternate clean/noisy readings (a bursty channel seen through a
	// short window): the controller must hold its profile, never flap.
	for cycle := 0; cycle < 10; cycle++ {
		for i := 0; i < 3; i++ { // 3 clean < dwell 4
			if _, changed := a.Pick(1e-15, frameBits); changed {
				t.Fatal("flapped down inside a burst gap")
			}
		}
		if _, changed := a.Pick(1e-5, frameBits); changed {
			t.Fatal("re-escalation counted as a change while holding")
		}
	}
	// A sustained clean channel does step down.
	var p Profile
	for i := 0; i <= 4; i++ {
		p, _ = a.Pick(1e-15, frameBits)
	}
	if p.Name() != "none" {
		t.Fatalf("sustained clean channel stuck at %s", p.Name())
	}
}

func TestEffectiveRate(t *testing.T) {
	p, _ := ProfileByName("rs(255,239)")
	raw := 25.78125e9
	eff := p.EffectiveRate(raw)
	if eff >= raw || eff < raw*0.9 {
		t.Fatalf("effective rate %v vs raw %v", eff, raw)
	}
}
