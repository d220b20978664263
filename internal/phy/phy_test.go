package phy

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"rackfab/internal/fec"
	"rackfab/internal/sim"
)

func TestMediaProfiles(t *testing.T) {
	for _, m := range []Media{Backplane, CopperDAC, OpticalFiber} {
		p := ProfileOf(m)
		if p.PropagationPerMeter <= 0 {
			t.Errorf("%v: no propagation constant", m)
		}
		if len(p.LaneRates) == 0 {
			t.Errorf("%v: no lane rates", m)
		}
		if p.LanePowerW <= 0 {
			t.Errorf("%v: no lane power", m)
		}
		if m.String() == "" {
			t.Errorf("%v: empty name", m)
		}
	}
	// Copper DAC is a passive cable: no mid-span bypass.
	if ProfileOf(CopperDAC).SupportsBypass {
		t.Error("copper DAC should not support bypass")
	}
	if !ProfileOf(Backplane).SupportsBypass || !ProfileOf(OpticalFiber).SupportsBypass {
		t.Error("backplane and fiber must support bypass")
	}
}

func TestPropagationFigure1Constants(t *testing.T) {
	// Figure 1 assumes a switch every 2 m; flight time across 2 m of fiber
	// must be ~9.8 ns — negligible next to a 450 ns switch traversal.
	d := ProfileOf(OpticalFiber).Propagation(2.0)
	if d != 9800*sim.Picosecond {
		t.Fatalf("2m fiber = %v, want 9.8ns", d)
	}
}

func TestLaneLifecycle(t *testing.T) {
	l := NewLane(0, 25.78125e9)
	if l.State() != LaneUp || !l.Carries() {
		t.Fatal("new lane not up")
	}
	if err := l.SetState(LaneBypassed); err != nil {
		t.Fatal(err)
	}
	if l.Carries() {
		t.Fatal("bypassed lane still carries switched traffic")
	}
	if err := l.SetState(LaneFailed); err != nil {
		t.Fatal(err)
	}
	if err := l.SetState(LaneUp); err == nil {
		t.Fatal("failed lane revived by command")
	}
	if err := l.SetState(LaneOff); err != nil {
		t.Fatalf("failed lane cannot be turned off: %v", err)
	}
}

func TestLaneBERValidation(t *testing.T) {
	l := NewLane(0, 10e9)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on BER > 1")
		}
	}()
	l.SetBER(2)
}

// testLink builds a 2 m backplane link with the given number of
// 25.78125G lanes.
func testLink(t testing.TB, lanes int) *Link {
	t.Helper()
	l, err := NewLink(Backplane, 2, lanes, 25.78125e9)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestLinkConstruction(t *testing.T) {
	if _, err := NewLink(Backplane, 2, 0, 25.78125e9); err == nil {
		t.Error("zero lanes accepted")
	}
	if _, err := NewLink(Backplane, 0, 4, 25.78125e9); err == nil {
		t.Error("zero length accepted")
	}
	if _, err := NewLink(Backplane, 2, 4, 1234); err == nil {
		t.Error("unsupported rate accepted")
	}
	l := testLink(t, 4)
	if l.ActiveLanes() != 4 {
		t.Fatalf("active lanes = %d", l.ActiveLanes())
	}
	// The paper's canonical 100G-as-4x25G link.
	if math.Abs(l.RawRate()-103.125e9) > 1 {
		t.Fatalf("raw rate = %v", l.RawRate())
	}
}

func TestLinkRatesWithFEC(t *testing.T) {
	l := testLink(t, 4)
	raw := l.RawRate()
	if l.EffectiveRate() != raw {
		t.Fatal("none FEC should not tax rate")
	}
	rs, _ := fec.ProfileByName("rs(255,239)")
	l.SetFEC(rs)
	if eff := l.EffectiveRate(); eff >= raw || eff < raw*0.9 {
		t.Fatalf("effective rate with RS = %v (raw %v)", eff, raw)
	}
	// Serialization of 1500B grows by exactly the FEC overhead.
	noneD := sim.Transmission(1500*8, raw)
	gotD := l.SerializationDelay(1500 * 8)
	wantD := sim.Duration(float64(noneD) * rs.Overhead())
	if diff := gotD - wantD; diff < -2 || diff > 2 {
		t.Fatalf("serialization %v, want ≈%v", gotD, wantD)
	}
}

// bypassedLanes counts l's lanes in bypass mode.
func bypassedLanes(l *Link) int {
	n := 0
	for _, lane := range l.Lanes {
		if lane.State() == LaneBypassed {
			n++
		}
	}
	return n
}

func TestSplitAndBundle(t *testing.T) {
	l := testLink(t, 2)
	freed, err := l.SplitLanes(1, LaneBypassed)
	if err != nil {
		t.Fatal(err)
	}
	if len(freed) != 1 || l.ActiveLanes() != 1 || bypassedLanes(l) != 1 {
		t.Fatalf("split: freed=%d active=%d bypassed=%d", len(freed), l.ActiveLanes(), bypassedLanes(l))
	}
	// Rate halves after the split.
	if math.Abs(l.RawRate()-25.78125e9) > 1 {
		t.Fatalf("post-split rate = %v", l.RawRate())
	}
	if err := l.BundleLanes(); err != nil {
		t.Fatal(err)
	}
	for _, lane := range l.Lanes {
		if lane.State() != LaneTraining {
			t.Fatalf("lane %d state %v after bundle", lane.Index, lane.State())
		}
	}
}

func TestSplitValidation(t *testing.T) {
	l := testLink(t, 2)
	if _, err := l.SplitLanes(0, LaneOff); err == nil {
		t.Error("keep=0 accepted")
	}
	if _, err := l.SplitLanes(2, LaneOff); err == nil {
		t.Error("keep=all accepted")
	}
}

func TestTransferFrameClean(t *testing.T) {
	l := testLink(t, 4)
	rng := sim.NewRNG(1)
	for i := 0; i < 100; i++ {
		if l.TransferFrame(rng, 0, 1500*8) {
			t.Fatal("pristine link lost a frame")
		}
	}
	// Each frame stripes evenly over the four lanes.
	const want = 100 * 1500 * 8 / 4
	for _, lane := range l.Lanes {
		if got := lane.Stats.BitsCarried.Value(); got != want {
			t.Fatalf("lane %d carried %d bits, want %d", lane.Index, got, want)
		}
	}
}

func TestTransferFrameNoisyNoFEC(t *testing.T) {
	l := testLink(t, 1)
	l.Lanes[0].SetBER(1e-5) // expect ~11% frame loss at 12kb without FEC
	rng := sim.NewRNG(2)
	lost := 0
	const frames = 2000
	for i := 0; i < frames; i++ {
		if l.TransferFrame(rng, 0, 1500*8) {
			lost++
		}
	}
	frac := float64(lost) / frames
	want := 1 - math.Pow(1-1e-5, 12000)
	if math.Abs(frac-want) > 0.03 {
		t.Fatalf("loss frac = %v, want ≈%v", frac, want)
	}
	// Receiver BER estimate must be near the truth.
	st := &l.Lanes[0].Stats
	got := float64(st.PreFECBitErrors.Value()) / float64(st.BitsCarried.Value())
	if got < 1e-6 || got > 1e-4 {
		t.Fatalf("measured BER = %v, want ≈1e-5", got)
	}
}

func TestTransferFrameNoisyWithRS(t *testing.T) {
	l := testLink(t, 1)
	l.Lanes[0].SetBER(1e-5)
	rs, _ := fec.ProfileByName("rs(255,239)")
	l.SetFEC(rs)
	rng := sim.NewRNG(3)
	lost := 0
	for i := 0; i < 2000; i++ {
		if l.TransferFrame(rng, 0, 1500*8) {
			lost++
		}
	}
	if lost != 0 {
		t.Fatalf("RS t=8 lost %d frames at BER 1e-5", lost)
	}
	// No frame was lost, so every raw error the receiver saw was corrected.
	if l.Lanes[0].Stats.PreFECBitErrors.Value() == 0 {
		t.Fatal("no raw bit errors recorded despite BER 1e-5")
	}
}

// TestFrameLossProbMemo checks the per-link loss memo against the FEC
// model evaluated directly, across repeated keys and changes of BER,
// frame size and FEC profile.
func TestFrameLossProbMemo(t *testing.T) {
	l := testLink(t, 1)
	none, _ := fec.ProfileByName("none")
	rs, _ := fec.ProfileByName("rs(255,239)")
	steps := []struct {
		prof fec.Profile
		ber  float64
		bits int
	}{
		{rs, 1e-5, 12000}, {rs, 1e-5, 12000}, {rs, 1e-4, 12000}, {rs, 1e-5, 12000},
		{rs, 1e-5, 512}, {none, 1e-5, 512}, {none, 1e-5, 512}, {rs, 1e-5, 512}, {rs, 0, 512},
	}
	for i, s := range steps {
		l.SetFEC(s.prof)
		got, want := l.frameLossProb(s.ber, s.bits), s.prof.Code.FrameLossProb(s.ber, s.bits)
		if got != want {
			t.Fatalf("step %d (%s, ber %g, %d bits): memo %g, model %g", i, s.prof.Name(), s.ber, s.bits, got, want)
		}
	}
}

func TestWorstBER(t *testing.T) {
	l := testLink(t, 4)
	l.Lanes[2].SetBER(1e-6)
	if l.WorstBER() != 1e-6 {
		t.Fatalf("worst BER = %v", l.WorstBER())
	}
	// A bypassed lane's BER no longer counts toward switched traffic.
	if err := l.Lanes[2].SetState(LaneBypassed); err != nil {
		t.Fatal(err)
	}
	if l.WorstBER() >= 1e-6 {
		t.Fatalf("bypassed lane still dominates BER: %v", l.WorstBER())
	}
}

// Property: for any lane subset split off, active+bypassed+off counts are
// conserved and RawRate matches active lanes × rate.
func TestSplitConservationProperty(t *testing.T) {
	f := func(lanesRaw, keepRaw uint8) bool {
		lanes := 2 + int(lanesRaw)%7 // 2..8
		keep := 1 + int(keepRaw)%(lanes-1)
		l := testLink(t, lanes)
		if _, err := l.SplitLanes(keep, LaneBypassed); err != nil {
			return false
		}
		if l.ActiveLanes() != keep || bypassedLanes(l) != lanes-keep {
			return false
		}
		return math.Abs(l.RawRate()-float64(keep)*25.78125e9) < 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(40))}); err != nil {
		t.Fatal(err)
	}
}
