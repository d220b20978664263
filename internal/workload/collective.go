package workload

import "rackfab/internal/sim"

// This file generates collective communication schedules as *phased*
// workloads: a [][]FlowSpec where each inner slice is one barrier-
// synchronized phase. A phase's flows may only be released once every flow
// of the prior phase has completed — the bulk-synchronous structure of
// all-reduce and all-to-all steps in distributed training, and exactly the
// pattern whose tail latency the SLO telemetry measures. Spec At values are
// phase-relative; Cluster.RunPhases anchors each phase at the instant the
// previous one drains. Generators are pure functions of their arguments (no RNG):
// collective schedules are fixed by the algorithm, not sampled.

// RingAllReduce generates the ring all-reduce schedule over nodes ranks:
// 2·(nodes−1) phases (reduce-scatter then all-gather), each a full ring
// rotation where rank i sends one chunk of bytes/nodes to rank (i+1) mod
// nodes. Total bytes moved per node is the classic 2·bytes·(nodes−1)/nodes.
func RingAllReduce(nodes int, bytes int64) [][]FlowSpec {
	if nodes < 2 {
		panic("workload: ring all-reduce needs ≥2 nodes")
	}
	if bytes <= 0 {
		panic("workload: ring all-reduce needs positive bytes")
	}
	chunk := bytes / int64(nodes)
	if chunk <= 0 {
		chunk = 1
	}
	phases := make([][]FlowSpec, 0, 2*(nodes-1))
	for p := 0; p < 2*(nodes-1); p++ {
		ph := make([]FlowSpec, nodes)
		for i := 0; i < nodes; i++ {
			ph[i] = FlowSpec{Src: i, Dst: (i + 1) % nodes, Bytes: chunk, Label: "ring-allreduce"}
		}
		phases = append(phases, ph)
	}
	return phases
}

// HalvingDoubling generates the recursive-halving reduce-scatter followed
// by recursive-doubling all-gather — the latency-optimal all-reduce for
// power-of-two node counts: 2·log2(nodes) phases where phase k pairs rank i
// with rank i XOR d for a doubling distance d, exchanging bytes/(2d).
func HalvingDoubling(nodes int, bytes int64) [][]FlowSpec {
	if nodes < 2 || nodes&(nodes-1) != 0 {
		panic("workload: halving-doubling needs a power-of-two node count ≥2")
	}
	if bytes <= 0 {
		panic("workload: halving-doubling needs positive bytes")
	}
	exchange := func(d int) []FlowSpec {
		sz := bytes / int64(2*d)
		if sz <= 0 {
			sz = 1
		}
		ph := make([]FlowSpec, nodes)
		for i := 0; i < nodes; i++ {
			ph[i] = FlowSpec{Src: i, Dst: i ^ d, Bytes: sz, Label: "halving-doubling"}
		}
		return ph
	}
	var phases [][]FlowSpec
	for d := 1; d < nodes; d <<= 1 { // reduce-scatter: distance doubles, size halves
		phases = append(phases, exchange(d))
	}
	for d := nodes >> 1; d >= 1; d >>= 1 { // all-gather: mirror back
		phases = append(phases, exchange(d))
	}
	return phases
}

// AllToAll generates one synchronized all-to-all shuffle phase: every node
// sends bytesPerPair to every other node, all released together — the
// deterministic, phase-shaped sibling of Shuffle (which jitters arrivals
// for open-loop experiments).
func AllToAll(nodes int, bytesPerPair int64) []FlowSpec {
	if nodes < 2 {
		panic("workload: all-to-all needs ≥2 nodes")
	}
	if bytesPerPair <= 0 {
		panic("workload: all-to-all needs positive pair size")
	}
	specs := make([]FlowSpec, 0, nodes*(nodes-1))
	for src := 0; src < nodes; src++ {
		for dst := 0; dst < nodes; dst++ {
			if src == dst {
				continue
			}
			specs = append(specs, FlowSpec{Src: src, Dst: dst, Bytes: bytesPerPair, Label: "alltoall"})
		}
	}
	return specs
}

// IdealFCT is the uncontended completion time of one flow: serialization of
// its bytes at the wire rate plus its hop count of per-hop traversal
// latency. This is the denominator of the SLO stretch metric (FCT/ideal):
// a flow that never queued and never shared a link scores 1.
func IdealFCT(bytes int64, rateBitsPerSec float64, hops int, perHop sim.Duration) sim.Duration {
	if rateBitsPerSec <= 0 {
		panic("workload: ideal FCT needs a positive wire rate")
	}
	return sim.Seconds(float64(bytes*8)/rateBitsPerSec) + sim.Duration(int64(perHop)*int64(hops))
}
