package experiment

import (
	"sort"
	"testing"

	"rackfab/internal/faults"
	"rackfab/internal/fluid"
	"rackfab/internal/sim"
	"rackfab/internal/telemetry"
	"rackfab/internal/topo"
	"rackfab/internal/workload"
)

// TestFluidPacketRankOrder is the cross-model differential gate: the same
// small scenario runs through the fluid engine and the packet engine, and
// the completion-time RANK ORDER of the flows must agree. The two models
// disagree on absolute numbers by design (the fluid engine has no frames,
// queues, or FEC), but a geometric spread of flow sizes must finish in the
// same relative order under both — the same coarse sanity E8's crossCheck
// note applies at full experiment scale, pinned here as a unit test.
func TestFluidPacketRankOrder(t *testing.T) {
	// Distinct sizes a factor ~2 apart on distinct node pairs: large enough
	// gaps that model differences (per-frame overheads, hop latencies)
	// cannot reorder completions, light enough arrival spread that sharing
	// stays mild — the regime the fluid approximation targets.
	specs := []workload.FlowSpec{
		{Src: 0, Dst: 5, Bytes: 100e3, At: 0, Label: "s100k"},
		{Src: 3, Dst: 6, Bytes: 200e3, At: 20 * sim.Time(sim.Microsecond), Label: "s200k"},
		{Src: 12, Dst: 9, Bytes: 400e3, At: 40 * sim.Time(sim.Microsecond), Label: "s400k"},
		{Src: 15, Dst: 10, Bytes: 800e3, At: 10 * sim.Time(sim.Microsecond), Label: "s800k"},
		{Src: 1, Dst: 13, Bytes: 1600e3, At: 30 * sim.Time(sim.Microsecond), Label: "s1600k"},
		{Src: 7, Dst: 4, Bytes: 3200e3, At: 5 * sim.Time(sim.Microsecond), Label: "s3200k"},
	}

	g1 := topo.NewGrid(4, 4, topo.Options{})
	fl, err := fluid.Run(fluid.Config{Graph: g1}, specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(fl.Flows) != len(specs) {
		t.Fatalf("fluid completed %d of %d flows", len(fl.Flows), len(specs))
	}
	fluidOrder := make([]string, 0, len(fl.Flows))
	fluidEnd := make(map[string]sim.Time, len(fl.Flows))
	for _, fr := range fl.Flows {
		fluidEnd[fr.Spec.Label] = fr.Start.Add(fr.FCT)
	}
	for label := range fluidEnd {
		fluidOrder = append(fluidOrder, label)
	}
	sort.Slice(fluidOrder, func(i, j int) bool {
		return fluidEnd[fluidOrder[i]] < fluidEnd[fluidOrder[j]]
	})

	g2 := topo.NewGrid(4, 4, topo.Options{})
	f, _, err := buildFabric(g2, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	flows, err := f.InjectFlows(specs)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.RunUntilDone(sim.Time(60 * sim.Second)); err != nil {
		t.Fatal(err)
	}
	packetEnd := make(map[string]sim.Time, len(flows))
	packetOrder := make([]string, 0, len(flows))
	for i, flw := range flows {
		if !flw.Done() {
			t.Fatalf("packet engine left flow %q unfinished", specs[i].Label)
		}
		packetEnd[specs[i].Label] = flw.Started().Add(flw.FCT())
		packetOrder = append(packetOrder, specs[i].Label)
	}
	sort.Slice(packetOrder, func(i, j int) bool {
		return packetEnd[packetOrder[i]] < packetEnd[packetOrder[j]]
	})

	for i := range fluidOrder {
		if fluidOrder[i] != packetOrder[i] {
			t.Fatalf("completion rank order diverged at position %d:\nfluid:  %v\npacket: %v",
				i, fluidOrder, packetOrder)
		}
	}
}

// TestFluidPacketDistributionAgreement1024 lifts the differential gate from
// rank order to distribution shape at real scale: the same 1024-flow
// permutation (64 KB each) on the same 32×32 grid runs through both
// engines, and the FCT CDFs must agree quantile-wise within a fixed band.
// The engines disagree on absolute time by design — the packet datapath
// pipelines frames across hops while the fluid solver holds each flow to
// its max-min share end to end, so packet FCTs land at roughly a third of
// fluid's under this contention. What must hold is that the gap is the
// SAME bounded factor at every quantile: the two CDFs are parallel, so
// either engine predicts the other's tail by a constant rescale. Both
// engines are deterministic, so the bands are tight around measured
// ratios (0.34–0.46 across p10–p99), not statistical allowances.
func TestFluidPacketDistributionAgreement1024(t *testing.T) {
	if testing.Short() {
		t.Skip("1024-node two-engine differential is several seconds; skipped under -short")
	}
	const side = 32
	specs := workload.Permutation(sim.NewRNG(42), side*side, workload.Fixed(64e3))

	g1 := topo.NewGrid(side, side, topo.Options{})
	fl, err := fluid.Run(fluid.Config{Graph: g1}, specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(fl.Flows) != len(specs) {
		t.Fatalf("fluid completed %d of %d flows", len(fl.Flows), len(specs))
	}
	fluidFCT := make([]float64, 0, len(fl.Flows))
	for _, fr := range fl.Flows {
		fluidFCT = append(fluidFCT, float64(fr.FCT))
	}
	sort.Float64s(fluidFCT)

	g2 := topo.NewGrid(side, side, topo.Options{})
	f, _, err := buildFabric(g2, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	flows, err := f.InjectFlows(specs)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.RunUntilDone(sim.Time(60 * sim.Second)); err != nil {
		t.Fatal(err)
	}
	packetFCT := make([]float64, 0, len(flows))
	for i, flw := range flows {
		if !flw.Done() {
			t.Fatalf("packet engine left flow %d unfinished", i)
		}
		packetFCT = append(packetFCT, float64(flw.FCT()))
	}
	sort.Float64s(packetFCT)

	const loRatio, hiRatio = 0.30, 0.55 // packet/fluid band, every quantile
	const maxSpread = 1.45              // worst/best quantile ratio: CDFs stay parallel
	minR, maxR := hiRatio, loRatio
	for _, pct := range []int{10, 25, 50, 75, 90, 99} {
		i := telemetry.NearestRank(len(fluidFCT), pct)
		r := packetFCT[i] / fluidFCT[i]
		if r < loRatio || r > hiRatio {
			t.Errorf("p%d packet/fluid FCT ratio %.3f outside [%.2f, %.2f] (fluid %.0fus, packet %.0fus)",
				pct, r, loRatio, hiRatio, fluidFCT[i]/1e3, packetFCT[i]/1e3)
		}
		if r < minR {
			minR = r
		}
		if r > maxR {
			maxR = r
		}
	}
	if spread := maxR / minR; spread > maxSpread {
		t.Errorf("quantile ratio spread %.3f exceeds %.2f; the engine gap is not a constant rescale", spread, maxSpread)
	}
}

// TestFluidPacketRankOrderUnderFlap is the fault-schedule extension of the
// differential gate: a heavier mix (eight flows, geometric ×2 sizes, more
// path sharing) runs through both engines WHILE a central link flaps —
// down mid-traffic, restored later. The fluid side takes the flap as a
// faults.Schedule through Config.Faults (capacity → 0, reroute, repair);
// the packet side takes the exact same flap as scheduled engine events
// that administratively disable the edge and rebuild routes, the oracle
// version of what the CRC's re-pricing loop does. The two models disagree
// on absolute numbers by design, but the ×2 size spread must keep the
// completion rank order identical through the churn.
func TestFluidPacketRankOrderUnderFlap(t *testing.T) {
	specs := []workload.FlowSpec{
		{Src: 0, Dst: 5, Bytes: 50e3, At: 0, Label: "s50k"},
		{Src: 3, Dst: 6, Bytes: 100e3, At: 20 * sim.Time(sim.Microsecond), Label: "s100k"},
		{Src: 12, Dst: 9, Bytes: 200e3, At: 40 * sim.Time(sim.Microsecond), Label: "s200k"},
		{Src: 15, Dst: 10, Bytes: 400e3, At: 10 * sim.Time(sim.Microsecond), Label: "s400k"},
		{Src: 1, Dst: 13, Bytes: 800e3, At: 30 * sim.Time(sim.Microsecond), Label: "s800k"},
		{Src: 7, Dst: 4, Bytes: 1600e3, At: 5 * sim.Time(sim.Microsecond), Label: "s1600k"},
		{Src: 2, Dst: 14, Bytes: 3200e3, At: 15 * sim.Time(sim.Microsecond), Label: "s3200k"},
		{Src: 8, Dst: 11, Bytes: 6400e3, At: 25 * sim.Time(sim.Microsecond), Label: "s6400k"},
	}
	const (
		downAt = 30 * sim.Time(sim.Microsecond)
		upAt   = 250 * sim.Time(sim.Microsecond)
	)

	// Fluid side: the flap as a fault schedule.
	g1 := topo.NewGrid(4, 4, topo.Options{})
	flapEdge, ok := g1.EdgeBetween(9, 10) // on the 6400k flow 8→11 row path
	if !ok {
		t.Fatal("missing central edge 9-10")
	}
	sched := faults.New(
		faults.Event{At: downAt, Target: flapEdge.Index(), Kind: faults.LinkDown},
		faults.Event{At: upAt, Target: flapEdge.Index(), Kind: faults.LinkUp},
	)
	fl, err := fluid.Run(fluid.Config{Graph: g1, Faults: sched}, specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(fl.Flows) != len(specs) {
		t.Fatalf("fluid completed %d of %d flows", len(fl.Flows), len(specs))
	}
	if fl.Faults.CapacityEvents != 2 {
		t.Fatalf("fluid applied %d capacity events, want 2", fl.Faults.CapacityEvents)
	}
	if fl.Faults.Reroutes == 0 {
		t.Fatal("the flap touched no flow — the scenario is inert, move the flap edge")
	}
	fluidEnd := make(map[string]sim.Time, len(fl.Flows))
	for _, fr := range fl.Flows {
		fluidEnd[fr.Spec.Label] = fr.Start.Add(fr.FCT)
	}
	fluidOrder := make([]string, 0, len(fl.Flows))
	for label := range fluidEnd {
		fluidOrder = append(fluidOrder, label)
	}
	sort.Slice(fluidOrder, func(i, j int) bool {
		return fluidEnd[fluidOrder[i]] < fluidEnd[fluidOrder[j]]
	})

	// Packet side: the same flap as scheduled control-plane events.
	g2 := topo.NewGrid(4, 4, topo.Options{})
	f, _, err := buildFabric(g2, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	eng := f.Engine()
	e2, ok := g2.EdgeBetween(9, 10)
	if !ok {
		t.Fatal("missing central edge 9-10 on packet graph")
	}
	eng.At(downAt, "flap-down", func() {
		e2.SetEnabled(false)
		f.RebuildRoutes(nil)
	})
	eng.At(upAt, "flap-up", func() {
		e2.SetEnabled(true)
		f.RebuildRoutes(nil)
	})
	flows, err := f.InjectFlows(specs)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.RunUntilDone(sim.Time(60 * sim.Second)); err != nil {
		t.Fatal(err)
	}
	packetEnd := make(map[string]sim.Time, len(flows))
	packetOrder := make([]string, 0, len(flows))
	for i, flw := range flows {
		if !flw.Done() {
			t.Fatalf("packet engine left flow %q unfinished", specs[i].Label)
		}
		packetEnd[specs[i].Label] = flw.Started().Add(flw.FCT())
		packetOrder = append(packetOrder, specs[i].Label)
	}
	sort.Slice(packetOrder, func(i, j int) bool {
		return packetEnd[packetOrder[i]] < packetEnd[packetOrder[j]]
	})

	for i := range fluidOrder {
		if fluidOrder[i] != packetOrder[i] {
			t.Fatalf("completion rank order diverged at position %d through the flap:\nfluid:  %v\npacket: %v",
				i, fluidOrder, packetOrder)
		}
	}
}
