package workload

import (
	"testing"

	"rackfab/internal/sim"
)

func validatePhases(t *testing.T, phases [][]FlowSpec, nodes int) {
	t.Helper()
	for p, ph := range phases {
		if len(ph) == 0 {
			t.Fatalf("phase %d is empty", p)
		}
		if err := ValidateSpecs(ph, nodes); err != nil {
			t.Fatalf("phase %d invalid: %v", p, err)
		}
		for i, s := range ph {
			if s.At != 0 {
				t.Fatalf("phase %d flow %d has At=%v; collective phases are released together", p, i, s.At)
			}
		}
	}
}

func TestRingAllReduceShape(t *testing.T) {
	const nodes, bytes = 8, 1 << 20
	phases := RingAllReduce(nodes, bytes)
	if got, want := len(phases), 2*(nodes-1); got != want {
		t.Fatalf("phases = %d, want %d", got, want)
	}
	validatePhases(t, phases, nodes)
	chunk := int64(bytes / nodes)
	for p, ph := range phases {
		if len(ph) != nodes {
			t.Fatalf("phase %d has %d flows, want one per rank", p, len(ph))
		}
		seen := make([]bool, nodes)
		for _, s := range ph {
			if s.Dst != (s.Src+1)%nodes {
				t.Fatalf("phase %d: %d→%d is not a ring rotation", p, s.Src, s.Dst)
			}
			if s.Bytes != chunk {
				t.Fatalf("phase %d: chunk %d, want %d", p, s.Bytes, chunk)
			}
			seen[s.Src] = true
		}
		for i, ok := range seen {
			if !ok {
				t.Fatalf("phase %d: rank %d sends nothing", p, i)
			}
		}
	}
	// Classic volume: each node moves 2·bytes·(N−1)/N in total.
	if got, want := totalBytes(flatten(phases))/int64(nodes), 2*chunk*int64(nodes-1); got != want {
		t.Errorf("per-node volume = %d, want %d", got, want)
	}
}

func TestHalvingDoublingShape(t *testing.T) {
	const nodes, bytes = 16, 1 << 20
	phases := HalvingDoubling(nodes, bytes)
	if got, want := len(phases), 8; got != want { // 2·log2(16)
		t.Fatalf("phases = %d, want %d", got, want)
	}
	validatePhases(t, phases, nodes)
	// Pairwise exchange at doubling distances, mirrored: sizes halve on the
	// way out and double back.
	wantDist := []int{1, 2, 4, 8, 8, 4, 2, 1}
	for p, ph := range phases {
		d := wantDist[p]
		sz := int64(bytes / (2 * d))
		for _, s := range ph {
			if s.Dst != s.Src^d {
				t.Fatalf("phase %d: %d→%d, want partner %d", p, s.Src, s.Dst, s.Src^d)
			}
			if s.Bytes != sz {
				t.Fatalf("phase %d: size %d, want %d", p, s.Bytes, sz)
			}
		}
	}
}

func TestHalvingDoublingRejectsNonPowerOfTwo(t *testing.T) {
	for _, n := range []int{0, 1, 3, 6, 12} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("HalvingDoubling(%d) did not panic", n)
				}
			}()
			HalvingDoubling(n, 1<<20)
		}()
	}
}

func TestAllToAllShape(t *testing.T) {
	const nodes, pair = 5, 4096
	specs := AllToAll(nodes, pair)
	if got, want := len(specs), nodes*(nodes-1); got != want {
		t.Fatalf("flows = %d, want %d", got, want)
	}
	if err := ValidateSpecs(specs, nodes); err != nil {
		t.Fatal(err)
	}
	seen := map[[2]int]bool{} //det:alltoall-pairs only membership checks, never iterated
	for _, s := range specs {
		if s.Bytes != pair || s.At != 0 {
			t.Fatalf("flow %d→%d: bytes %d at %v, want %d at 0", s.Src, s.Dst, s.Bytes, s.At, int64(pair))
		}
		seen[[2]int{s.Src, s.Dst}] = true
	}
	for src := 0; src < nodes; src++ {
		for dst := 0; dst < nodes; dst++ {
			if src != dst && !seen[[2]int{src, dst}] {
				t.Fatalf("missing pair %d→%d", src, dst)
			}
		}
	}
}

func TestIdealFCT(t *testing.T) {
	// 1000 bytes at 1 Gbit/s = 8 µs serialization, plus 3 hops × 450 ns.
	got := IdealFCT(1000, 1e9, 3, 450*sim.Nanosecond)
	want := sim.Seconds(8000e-9) + 3*450*sim.Nanosecond
	if got != want {
		t.Errorf("IdealFCT = %v, want %v", got, want)
	}
	// Zero hops is pure serialization.
	if got := IdealFCT(1000, 1e9, 0, 450*sim.Nanosecond); got != sim.Seconds(8000e-9) {
		t.Errorf("0-hop IdealFCT = %v, want pure serialization", got)
	}
}

func flatten(phases [][]FlowSpec) []FlowSpec {
	var out []FlowSpec
	for _, ph := range phases {
		out = append(out, ph...)
	}
	return out
}
