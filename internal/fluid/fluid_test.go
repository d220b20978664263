package fluid

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"rackfab/internal/sim"
	"rackfab/internal/topo"
	"rackfab/internal/workload"
)

func TestSingleFlowRate(t *testing.T) {
	g := topo.NewLine(2, topo.Options{}) // one 2×25.78G link
	res, err := Run(Config{Graph: g}, []workload.FlowSpec{
		{Src: 0, Dst: 1, Bytes: 64_453_125}, // ≈ 10 ms at 51.5625 Gb/s
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Flows) != 1 {
		t.Fatalf("flows = %d", len(res.Flows))
	}
	want := sim.Seconds(64_453_125 * 8 / 51.5625e9)
	got := res.Flows[0].FCT
	if diff := got - want; diff < 0 || diff > sim.Microsecond {
		t.Fatalf("FCT = %v, want ≈%v (+hop latency)", got, want)
	}
}

func TestFairSharing(t *testing.T) {
	// Two flows share one link: each gets half, so both finish at 2× the
	// solo time, simultaneously.
	g := topo.NewLine(2, topo.Options{})
	res, err := Run(Config{Graph: g}, []workload.FlowSpec{
		{Src: 0, Dst: 1, Bytes: 10e6},
		{Src: 0, Dst: 1, Bytes: 10e6},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Flows) != 2 {
		t.Fatalf("flows = %d", len(res.Flows))
	}
	a, b := res.Flows[0].FCT, res.Flows[1].FCT
	if math.Abs(float64(a-b)) > float64(sim.Microsecond) {
		t.Fatalf("equal flows finished apart: %v vs %v", a, b)
	}
	solo := sim.Seconds(10e6 * 8 / 51.5625e9)
	if a < 2*solo-sim.Duration(10*sim.Microsecond) || a > 2*solo+sim.Duration(10*sim.Microsecond) {
		t.Fatalf("shared FCT = %v, want ≈%v", a, 2*solo)
	}
}

func TestMaxMinUnbottleneckedGetsMore(t *testing.T) {
	// Line of 3: flow A spans both links, flow B only the second. Flow C
	// only the first. A is constrained with B and C; max-min gives every
	// flow half of each link (all links have 2 flows).
	g := topo.NewLine(3, topo.Options{})
	res, err := Run(Config{Graph: g}, []workload.FlowSpec{
		{Src: 0, Dst: 2, Bytes: 50e6}, // A: both links
		{Src: 1, Dst: 2, Bytes: 10e6}, // B: second link
		{Src: 0, Dst: 1, Bytes: 10e6}, // C: first link
	})
	if err != nil {
		t.Fatal(err)
	}
	// B and C (10 MB at half rate ≈ 3.1 ms) finish long before A; after
	// they finish A speeds up to full rate.
	var fctA, fctB sim.Duration
	for _, f := range res.Flows {
		switch {
		case f.Spec.Src == 0 && f.Spec.Dst == 2:
			fctA = f.FCT
		case f.Spec.Src == 1:
			fctB = f.FCT
		}
	}
	if fctB >= fctA {
		t.Fatalf("short flow (%v) not faster than spanning elephant (%v)", fctB, fctA)
	}
	// A: 10 MB at half rate (while B/C run) + 40 MB at full rate.
	half := 51.5625e9 / 2
	phase1 := 10e6 * 8 / half
	phase2 := 40e6 * 8 / 51.5625e9
	want := sim.Seconds(phase1 + phase2)
	if diff := fctA - want; diff < -sim.Duration(50*sim.Microsecond) || diff > sim.Duration(50*sim.Microsecond) {
		t.Fatalf("elephant FCT = %v, want ≈%v", fctA, want)
	}
}

func TestArrivalsInterleave(t *testing.T) {
	g := topo.NewLine(2, topo.Options{})
	res, err := Run(Config{Graph: g}, []workload.FlowSpec{
		{Src: 0, Dst: 1, Bytes: 10e6, At: 0},
		{Src: 0, Dst: 1, Bytes: 10e6, At: sim.Time(100 * sim.Millisecond)},
	})
	if err != nil {
		t.Fatal(err)
	}
	// The flows never overlap: both complete at solo rate.
	solo := sim.Seconds(10e6 * 8 / 51.5625e9)
	for _, f := range res.Flows {
		if diff := f.FCT - solo; diff < 0 || diff > sim.Duration(10*sim.Microsecond) {
			t.Fatalf("FCT = %v, want ≈%v", f.FCT, solo)
		}
	}
}

func TestTorusBeatsGridJCT(t *testing.T) {
	// The fluid engine must reproduce the Figure 2 direction: the same
	// shuffle completes faster on a torus than on a grid (per-link
	// capacity held equal) because paths are shorter → less sharing.
	rng := sim.NewRNG(11)
	specs := workload.Shuffle(rng, workload.ShuffleConfig{
		Mappers: workload.Range(36), Reducers: workload.Range(36), BytesPerPair: 1e6,
	})
	grid, err := Run(Config{Graph: topo.NewGrid(6, 6, topo.Options{})}, specs)
	if err != nil {
		t.Fatal(err)
	}
	torus, err := Run(Config{Graph: topo.NewTorus(6, 6, topo.Options{})}, specs)
	if err != nil {
		t.Fatal(err)
	}
	if jct(torus) >= jct(grid) {
		t.Fatalf("torus JCT %v not better than grid %v", jct(torus), jct(grid))
	}
}

// jct is a run's barrier completion time: earliest start to latest finish.
func jct(res *Result) sim.Duration {
	first, last := res.Flows[0].Start, res.Flows[0].Start
	for _, f := range res.Flows {
		first = min(first, f.Start)
		last = max(last, f.Start.Add(f.FCT))
	}
	return last.Sub(first)
}

func TestScale1024(t *testing.T) {
	if testing.Short() {
		t.Skip("1024-node sweep in -short mode")
	}
	rng := sim.NewRNG(12)
	specs := workload.Uniform(rng, workload.UniformConfig{
		Nodes: 1024, Flows: 2000, Size: workload.Fixed(256e3),
		MeanInterarrival: 2 * sim.Microsecond,
	})
	g := topo.NewTorus(32, 32, topo.Options{})
	res, err := Run(Config{Graph: g}, specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Flows) != 2000 {
		t.Fatalf("flows = %d", len(res.Flows))
	}
	for _, f := range res.Flows {
		if f.FCT <= 0 {
			t.Fatalf("flow %d→%d FCT %v", f.Spec.Src, f.Spec.Dst, f.FCT)
		}
	}
}

// Property: the fluid engine conserves work — every flow completes with
// exactly its bytes delivered (FCT > 0), completion count matches
// injection count, and no flow finishes faster than its solo line rate
// allows.
func TestFluidConservationProperty(t *testing.T) {
	f := func(seed int64, flowsRaw uint8) bool {
		rng := sim.NewRNG(seed)
		n := 9
		flows := 2 + int(flowsRaw)%20
		specs := workload.Uniform(rng, workload.UniformConfig{
			Nodes: n, Flows: flows,
			Size:             workload.Fixed(100e3),
			MeanInterarrival: 20 * sim.Microsecond,
		})
		g := topo.NewGrid(3, 3, topo.Options{})
		res, err := Run(Config{Graph: g}, specs)
		if err != nil {
			return false
		}
		if len(res.Flows) != flows {
			return false
		}
		soloFloor := sim.Seconds(100e3 * 8 / 51.5625e9)
		for _, fl := range res.Flows {
			if fl.FCT < soloFloor {
				return false // finished faster than the line rate allows
			}
			if fl.Hops < 1 || fl.Hops > 4 {
				return false // 3x3 grid diameter is 4
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(141))}); err != nil {
		t.Fatal(err)
	}
}

func TestValidation(t *testing.T) {
	g := topo.NewLine(2, topo.Options{})
	if _, err := Run(Config{Graph: nil}, nil); err == nil {
		t.Fatal("nil graph accepted")
	}
	if _, err := Run(Config{Graph: g}, []workload.FlowSpec{{Src: 0, Dst: 9, Bytes: 1}}); err == nil {
		t.Fatal("bad spec accepted")
	}
}
