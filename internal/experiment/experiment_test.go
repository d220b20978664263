package experiment

import (
	"math"
	"strconv"
	"strings"
	"testing"

	"rackfab/internal/sim"
	"rackfab/internal/telemetry"
)

// parse helpers for asserting on rendered cells.

func cellFloat(t *testing.T, cell string) float64 {
	t.Helper()
	cell = strings.TrimSuffix(strings.TrimSpace(cell), "x")
	cell = strings.TrimSuffix(cell, "%")
	cell = strings.TrimPrefix(cell, "+")
	v, err := strconv.ParseFloat(cell, 64)
	if err != nil {
		t.Fatalf("cell %q not numeric: %v", cell, err)
	}
	return v
}

func TestTableRendering(t *testing.T) {
	tab := &Table{Title: "T", Columns: []string{"a", "b"}}
	tab.AddRow("1", "hello")
	tab.AddNote("n=%d", 5)
	var sb strings.Builder
	if err := tab.Render(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"T", "a", "hello", "note: n=5"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	var csv strings.Builder
	if err := tab.CSV(&csv); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(csv.String(), "a,b\n1,hello\n") {
		t.Fatalf("csv = %q", csv.String())
	}
}

func TestTableRowMismatchPanics(t *testing.T) {
	tab := &Table{Title: "T", Columns: []string{"a", "b"}}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tab.AddRow("only-one")
}

// TestP99Convention pins summarize's P99 to the nearest-rank convention
// telemetry.Histogram.Quantile uses: the ceil(0.99·n)-th smallest sample.
// The two disagreed at small n — (n-1)·99/100 picks the 11th of 12 samples
// where nearest-rank demands the 12th. Sample values are chosen to sit
// exactly on histogram bucket bounds so the comparison is exact.
func TestP99Convention(t *testing.T) {
	for _, n := range []int{1, 12, 100} {
		var fcts []sim.Duration
		h := telemetry.NewHistogramPrecision(8)
		for k := 1; k <= n; k++ {
			v := sim.Duration(k) << 12
			fcts = append(fcts, v)
			h.Record(int64(v))
		}
		st, err := summarize(make([]sim.Time, n), fcts)
		if err != nil {
			t.Fatal(err)
		}
		want := sim.Duration(int64(math.Ceil(float64(n)*0.99))) << 12
		if st.p99 != want {
			t.Errorf("n=%d: summarize P99 = %d, want nearest-rank %d", n, st.p99, want)
		}
		if got := h.Quantile(0.99); got != int64(want) {
			t.Errorf("n=%d: histogram P99 = %d, want %d — conventions diverged", n, got, want)
		}
	}
}

// TestNearestRankShared holds the flow summary's P99 to
// telemetry.NearestRank across the whole small-n range — the convention
// has exactly one definition and this pins any future re-derivation drift.
func TestNearestRankShared(t *testing.T) {
	for n := 1; n <= 500; n++ {
		var fcts []sim.Duration
		for k := n; k >= 1; k-- { // descending: summarize must sort
			fcts = append(fcts, sim.Duration(k))
		}
		st, err := summarize(make([]sim.Time, n), fcts)
		if err != nil {
			t.Fatal(err)
		}
		if want := sim.Duration(telemetry.NearestRank(n, 99) + 1); st.p99 != want {
			t.Fatalf("n=%d: summarize P99 = %d, telemetry.NearestRank says %d", n, st.p99, want)
		}
	}
}

func TestRegistry(t *testing.T) {
	if len(IDs()) != 15 {
		t.Fatalf("experiments = %d, want 15", len(IDs()))
	}
	if _, ok := Lookup("fig1"); !ok {
		t.Fatal("fig1 missing")
	}
	if _, ok := Lookup("bogus"); ok {
		t.Fatal("bogus found")
	}
	if len(List()) != 15 {
		t.Fatal("List size")
	}
}

func TestFig1Shape(t *testing.T) {
	tab, err := Fig1(Config{Scale: Quick})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 8 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		media := cellFloat(t, row[2])
		switching := cellFloat(t, row[3])
		measured := cellFloat(t, row[4])
		// The paper's claim: switching dominates media at rack scale.
		if switching <= media*10 {
			t.Fatalf("switching (%v) does not dominate media (%v)", switching, media)
		}
		// The simulator must agree with the analytic switching series
		// within the serialization/propagation residue.
		if measured < switching {
			t.Fatalf("measured (%v) below analytic switching floor (%v)", measured, switching)
		}
		if measured > switching+media+2000 {
			t.Fatalf("measured (%v) far above model (%v)", measured, switching+media)
		}
	}
	// Cumulative series must be monotone.
	for i := 1; i < len(tab.Rows); i++ {
		if cellFloat(t, tab.Rows[i][3]) <= cellFloat(t, tab.Rows[i-1][3]) {
			t.Fatal("switching series not monotone")
		}
	}
}

func TestFig2Shape(t *testing.T) {
	tab, err := Fig2(Config{Scale: Quick})
	if err != nil {
		t.Fatal(err)
	}
	get := func(metric string) (float64, float64) {
		for _, row := range tab.Rows {
			if row[0] == metric {
				return cellFloat(t, row[1]), cellFloat(t, row[2])
			}
		}
		t.Fatalf("metric %q missing", metric)
		return 0, 0
	}
	gridHops, torusHops := get("mean hops")
	if torusHops >= gridHops {
		t.Fatalf("reconfiguration did not cut hops: %v → %v", gridHops, torusHops)
	}
	gridP50, torusP50 := get("frame latency p50 (us)")
	if torusP50 >= gridP50 {
		t.Fatalf("reconfiguration did not cut p50 latency: %v → %v", gridP50, torusP50)
	}
	gridPwr, torusPwr := get("peak power (W)")
	if torusPwr > gridPwr*1.01 {
		t.Fatalf("reconfiguration exceeded the power envelope: %v → %v", gridPwr, torusPwr)
	}
}

func TestE3Shape(t *testing.T) {
	tab, err := E3(Config{Scale: Quick})
	if err != nil {
		t.Fatal(err)
	}
	healthy := cellFloat(t, tab.Rows[0][1])
	static := cellFloat(t, tab.Rows[1][1])
	adaptive := cellFloat(t, tab.Rows[2][1])
	if static <= healthy {
		t.Fatalf("slow link did not hurt: healthy %v, static %v", healthy, static)
	}
	if adaptive >= static {
		t.Fatalf("CRC did not help: static %v, adaptive %v", static, adaptive)
	}
}

func TestE4Shape(t *testing.T) {
	tab, err := E4(Config{Scale: Quick})
	if err != nil {
		t.Fatal(err)
	}
	var finalFree, finalCapped float64
	var shed float64
	for _, row := range tab.Rows {
		switch row[0] {
		case "final power (W)":
			finalFree = cellFloat(t, row[1])
			finalCapped = cellFloat(t, row[2])
		case "power commands issued":
			shed = cellFloat(t, row[2])
		}
	}
	if finalCapped >= finalFree {
		t.Fatalf("capping did not reduce final power: %v vs %v", finalCapped, finalFree)
	}
	if shed == 0 {
		t.Fatal("no power commands issued under the cap")
	}
}

func TestE5Shape(t *testing.T) {
	tab, err := E5(Config{Scale: Quick})
	if err != nil {
		t.Fatal(err)
	}
	first := tab.Rows[0]
	last := tab.Rows[len(tab.Rows)-1]
	if first[3] != "switched" {
		t.Fatalf("smallest probe should prefer the switched path: %v", first)
	}
	if last[3] != "express" {
		t.Fatalf("largest probe should prefer the express path: %v", last)
	}
}

func TestE6Shape(t *testing.T) {
	tab, err := E6(Config{Scale: Quick})
	if err != nil {
		t.Fatal(err)
	}
	// Clean row: adaptive stays on none.
	clean := tab.Rows[0]
	if clean[4] != "none" {
		t.Fatalf("clean link adaptive profile = %s", clean[4])
	}
	// Noisiest row: adaptive escalated and beats none.
	noisy := tab.Rows[len(tab.Rows)-1]
	if noisy[4] == "none" {
		t.Fatal("noisy link never escalated FEC")
	}
	noneFct := cellFloat(t, strings.Split(noisy[1], "/")[0])
	adFct := cellFloat(t, strings.Split(noisy[3], "/")[0])
	if adFct >= noneFct {
		t.Fatalf("adaptive (%v) not better than none (%v) at worst BER", adFct, noneFct)
	}
}

func TestE9Shape(t *testing.T) {
	tab, err := E9(Config{Scale: Quick})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	noneRetx := cellFloat(t, tab.Rows[0][2])
	rsRetx := cellFloat(t, tab.Rows[1][2])
	adRetx := cellFloat(t, tab.Rows[2][2])
	if noneRetx == 0 {
		t.Fatal("bursty channel produced no retransmits without FEC")
	}
	if rsRetx > noneRetx/10 {
		t.Fatalf("fixed RS retx %v not far below none %v", rsRetx, noneRetx)
	}
	if adRetx >= noneRetx {
		t.Fatalf("adaptive retx %v not below none %v", adRetx, noneRetx)
	}
	// Adaptive must actually switch profiles on a bursty channel.
	if cellFloat(t, tab.Rows[2][3]) == 0 {
		t.Fatal("adaptive never switched FEC")
	}
	// Adaptive total time must beat the worse of the two fixed points.
	noneT := cellFloat(t, tab.Rows[0][1])
	rsT := cellFloat(t, tab.Rows[1][1])
	adT := cellFloat(t, tab.Rows[2][1])
	worstFixed := noneT
	if rsT > worstFixed {
		worstFixed = rsT
	}
	if adT >= worstFixed {
		t.Fatalf("adaptive (%v) no better than the worst fixed point (%v)", adT, worstFixed)
	}
	// The sticky dwell must flap far less than the default and land
	// within 15% of the fixed-RS time on this channel.
	adSwitches := cellFloat(t, tab.Rows[2][3])
	stickySwitches := cellFloat(t, tab.Rows[3][3])
	if stickySwitches >= adSwitches {
		t.Fatalf("sticky dwell switches %v not below default %v", stickySwitches, adSwitches)
	}
	stickyT := cellFloat(t, tab.Rows[3][1])
	if stickyT > rsT*1.15 {
		t.Fatalf("sticky adaptive (%v) not within 15%% of fixed RS (%v)", stickyT, rsT)
	}
}

func TestE7Shape(t *testing.T) {
	tab, err := E7(Config{Scale: Quick})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		if err := cellFloat(t, strings.TrimSuffix(row[3], "%")); err > 5 {
			t.Fatalf("hops %s: mean error %v%% exceeds validation bar", row[0], err)
		}
	}
}

func TestE8Shape(t *testing.T) {
	tab, err := E8(Config{Scale: Quick})
	if err != nil {
		t.Fatal(err)
	}
	// Rows come in grid/torus pairs per size; torus must win mean FCT.
	for i := 0; i+1 < len(tab.Rows); i += 2 {
		grid := cellFloat(t, tab.Rows[i][2])
		torus := cellFloat(t, tab.Rows[i+1][2])
		if torus >= grid {
			t.Fatalf("nodes %s: torus FCT %v not better than grid %v", tab.Rows[i][0], torus, grid)
		}
	}
	// Cross-check note must report a small delta.
	found := false
	for _, n := range tab.Notes {
		if strings.Contains(n, "cross-check") {
			found = true
		}
	}
	if !found {
		t.Fatal("cross-check note missing")
	}
}

func TestA1Runs(t *testing.T) {
	tab, err := A1(Config{Scale: Quick})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		if cellFloat(t, row[2]) <= 0 {
			t.Fatalf("non-positive p99 in %v", row)
		}
	}
}

func TestA3Shape(t *testing.T) {
	tab, err := A3(Config{Scale: Quick})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// VLB's defining cost: roughly doubled mean hops vs shortest path.
	sp := cellFloat(t, tab.Rows[0][3])
	vlb := cellFloat(t, tab.Rows[1][3])
	if vlb < sp*1.3 {
		t.Fatalf("VLB mean hops %v not meaningfully above shortest-path %v", vlb, sp)
	}
	// Every discipline must complete the permutation.
	for _, row := range tab.Rows {
		if cellFloat(t, row[1]) <= 0 {
			t.Fatalf("non-positive JCT in %v", row)
		}
	}
}

func TestA2Shape(t *testing.T) {
	tab, err := A2(Config{Scale: Quick})
	if err != nil {
		t.Fatal(err)
	}
	without := cellFloat(t, tab.Rows[0][1])
	with := cellFloat(t, tab.Rows[1][1])
	channels := cellFloat(t, tab.Rows[1][2])
	if channels == 0 {
		t.Fatal("bypass policy built no express channels")
	}
	if with >= without {
		t.Fatalf("bypass did not speed elephants: %v vs %v", with, without)
	}
}
