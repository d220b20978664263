package ringctl

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"rackfab/internal/sim"
)

func TestMinFlowSizeAnalytic(t *testing.T) {
	// C = 1 ms, 25G → 50G: σ* = C·r_b·r_a/(8(r_a−r_b)) = 6.25 MB.
	got := MinFlowSize(sim.Millisecond, 25e9, 50e9)
	if got != 6_250_000 {
		t.Fatalf("σ* = %d, want 6250000", got)
	}
	// Double the setup cost, double the threshold.
	if got2 := MinFlowSize(2*sim.Millisecond, 25e9, 50e9); got2 != 2*got {
		t.Fatalf("σ* not linear in setup: %d", got2)
	}
}

func TestMinFlowSizeDegenerate(t *testing.T) {
	if MinFlowSize(sim.Millisecond, 50e9, 50e9) != math.MaxInt64 {
		t.Fatal("no-speedup must never pay")
	}
	if MinFlowSize(sim.Millisecond, 50e9, 25e9) != math.MaxInt64 {
		t.Fatal("slowdown must never pay")
	}
	if MinFlowSize(0, 25e9, 50e9) != 0 {
		t.Fatal("free setup should always pay")
	}
}

func TestMinFlowSizeDivergesNearEqualRates(t *testing.T) {
	// As r_a → r_b the threshold must grow without bound.
	last := int64(0)
	for _, ra := range []float64{100e9, 50e9, 30e9, 26e9, 25.1e9} {
		v := MinFlowSize(sim.Millisecond, 25e9, ra)
		if v <= last {
			t.Fatalf("σ* not increasing as speedup shrinks: %d after %d", v, last)
		}
		last = v
	}
}

func TestWorthwhileConsistentWithThreshold(t *testing.T) {
	setup := 500 * sim.Microsecond
	rb, ra := 25e9, 103.125e9
	sigma := MinFlowSize(setup, rb, ra)
	if ok, _ := Worthwhile(sigma*2, setup, rb, ra); !ok {
		t.Fatal("flow at 2σ* judged not worthwhile")
	}
	if ok, _ := Worthwhile(sigma/2, setup, rb, ra); ok {
		t.Fatal("flow at σ*/2 judged worthwhile")
	}
	// Saving at 2σ* must be positive and bounded by the no-setup ideal.
	_, saving := Worthwhile(sigma*2, setup, rb, ra)
	ideal := sim.Seconds(float64(sigma*2) * 8 * (1/rb - 1/ra))
	if saving <= 0 || saving >= ideal {
		t.Fatalf("saving = %v, ideal = %v", saving, ideal)
	}
}

// Property: Worthwhile(S) is exactly S > σ* (within the ceil rounding).
func TestThresholdProperty(t *testing.T) {
	f := func(setupUs uint16, rbRaw, raRaw uint8, sRaw uint32) bool {
		setup := sim.Duration(1+int64(setupUs)) * sim.Microsecond
		rb := 1e9 * float64(1+int(rbRaw)%40)
		ra := rb * (1.1 + float64(raRaw%40)/10)
		s := int64(sRaw)
		sigma := MinFlowSize(setup, rb, ra)
		ok, _ := Worthwhile(s, setup, rb, ra)
		switch {
		case s > sigma && !ok:
			return false
		case s < sigma-1 && ok:
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(90))}); err != nil {
		t.Fatal(err)
	}
}
