package power

import (
	"math"
	"testing"

	"rackfab/internal/fec"
	"rackfab/internal/phy"
	"rackfab/internal/sim"
)

func TestLinkPowerStates(t *testing.T) {
	l, err := phy.NewLink(phy.Backplane, 2, 4, 25.78125e9)
	if err != nil {
		t.Fatal(err)
	}
	prof := l.Profile()
	// 4 active lanes, both ends.
	want := 8 * prof.LanePowerW
	if got := LinkPower(l); math.Abs(got-want) > 1e-9 {
		t.Fatalf("power = %v, want %v", got, want)
	}
	// Bypass two lanes: they drop to retimer draw.
	if _, err := l.SplitLanes(2, phy.LaneBypassed); err != nil {
		t.Fatal(err)
	}
	want = 4*prof.LanePowerW + 4*prof.BypassLanePowerW
	if got := LinkPower(l); math.Abs(got-want) > 1e-9 {
		t.Fatalf("split power = %v, want %v", got, want)
	}
	// Dark lanes draw nothing.
	for _, lane := range l.Lanes {
		if err := lane.SetState(phy.LaneOff); err != nil {
			t.Fatal(err)
		}
	}
	if got := LinkPower(l); got != 0 {
		t.Fatalf("dark link draws %v", got)
	}
}

func TestLinkPowerFEC(t *testing.T) {
	l, err := phy.NewLink(phy.Backplane, 2, 2, 25.78125e9)
	if err != nil {
		t.Fatal(err)
	}
	base := LinkPower(l)
	rs, _ := fec.ProfileByName("rs(255,239)")
	l.SetFEC(rs)
	if got := LinkPower(l); math.Abs(got-base-2*rs.PowerW) > 1e-9 {
		t.Fatalf("FEC power delta = %v, want %v", got-base, 2*rs.PowerW)
	}
	// FEC engines idle when the link is dark.
	for _, lane := range l.Lanes {
		if err := lane.SetState(phy.LaneOff); err != nil {
			t.Fatal(err)
		}
	}
	if got := LinkPower(l); got != 0 {
		t.Fatalf("dark link with FEC draws %v", got)
	}
}

func TestNodePower(t *testing.T) {
	p0 := NodePower(0)
	p4 := NodePower(4)
	if p4 <= p0 {
		t.Fatal("ports must cost power")
	}
	if math.Abs((p4-p0)-4*SwitchPortCoreW) > 1e-9 {
		t.Fatalf("port delta = %v", p4-p0)
	}
}

func TestBudgetEnergyIntegration(t *testing.T) {
	b := NewBudget(0)
	b.Observe(0, 100)
	b.Observe(sim.Time(2*sim.Second), 50)
	// 100 W for 2 s = 200 J so far.
	if math.Abs(b.EnergyJ()-200) > 1e-9 {
		t.Fatalf("energy = %v", b.EnergyJ())
	}
	b.Observe(sim.Time(3*sim.Second), 0)
	if math.Abs(b.EnergyJ()-250) > 1e-9 {
		t.Fatalf("energy = %v", b.EnergyJ())
	}
	if b.PeakW() != 100 {
		t.Fatalf("peak = %v", b.PeakW())
	}
}

func TestBudgetOverCap(t *testing.T) {
	b := NewBudget(80)
	b.Observe(0, 50)
	if hw, capped := b.HeadroomW(); !capped || hw != 30 {
		t.Fatalf("headroom = %v capped=%v", hw, capped)
	}
	b.Observe(sim.Time(sim.Second), 100)
	if b.OverTime() != 0 {
		t.Fatalf("under-cap second counted over: over time = %v", b.OverTime())
	}
	if hw, _ := b.HeadroomW(); hw != -20 {
		t.Fatalf("headroom over cap = %v", hw)
	}
	b.Observe(sim.Time(3*sim.Second), 60)
	if b.OverTime() != 2*sim.Second {
		t.Fatalf("over time = %v", b.OverTime())
	}
	// Back under the cap: no further over time accrues.
	b.Observe(sim.Time(4*sim.Second), 60)
	if b.OverTime() != 2*sim.Second {
		t.Fatalf("over time grew after recovery: %v", b.OverTime())
	}
}

func TestBudgetValidation(t *testing.T) {
	b := NewBudget(0)
	if _, capped := b.HeadroomW(); capped {
		t.Fatal("uncapped budget reports capped")
	}
	b.Observe(sim.Time(sim.Second), 10)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-order observation accepted")
		}
	}()
	b.Observe(0, 10)
}
