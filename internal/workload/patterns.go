package workload

import (
	"fmt"

	"rackfab/internal/sim"
)

// UniformConfig parameterizes open-loop uniform-random traffic.
type UniformConfig struct {
	// Nodes is the fabric size.
	Nodes int
	// Flows is the total number of flows to generate.
	Flows int
	// Size draws flow sizes.
	Size SizeDist
	// MeanInterarrival is the Poisson inter-arrival mean across the whole
	// fabric (0 = all flows at t=0).
	MeanInterarrival sim.Duration
}

// Uniform generates flows between uniformly random distinct pairs with
// Poisson arrivals.
func Uniform(rng *sim.RNG, cfg UniformConfig) []FlowSpec {
	if cfg.Nodes < 2 {
		panic("workload: uniform needs ≥2 nodes")
	}
	specs := make([]FlowSpec, 0, cfg.Flows)
	var t sim.Time
	for i := 0; i < cfg.Flows; i++ {
		if cfg.MeanInterarrival > 0 {
			t = t.Add(rng.ExpDuration(cfg.MeanInterarrival))
		}
		src := rng.Intn(cfg.Nodes)
		dst := rng.Intn(cfg.Nodes - 1)
		if dst >= src {
			dst++
		}
		specs = append(specs, FlowSpec{Src: src, Dst: dst, Bytes: cfg.Size.Sample(rng), At: t, Label: "uniform"})
	}
	return specs
}

// Permutation generates one flow per node to a random fixed-point-free
// permutation partner — the classic adversarial pattern for oblivious
// routing.
func Permutation(rng *sim.RNG, nodes int, size SizeDist) []FlowSpec {
	if nodes < 2 {
		panic("workload: permutation needs ≥2 nodes")
	}
	perm := derangement(rng, nodes)
	specs := make([]FlowSpec, 0, nodes)
	for src, dst := range perm {
		specs = append(specs, FlowSpec{Src: src, Dst: dst, Bytes: size.Sample(rng), Label: "permutation"})
	}
	return specs
}

// derangement samples a fixed-point-free permutation by rejection.
func derangement(rng *sim.RNG, n int) []int {
	for {
		p := rng.Perm(n)
		ok := true
		for i, v := range p {
			if i == v {
				ok = false
				break
			}
		}
		if ok {
			return p
		}
	}
}

// HotspotConfig parameterizes skewed traffic.
type HotspotConfig struct {
	Nodes int
	Flows int
	Size  SizeDist
	// HotNodes receive HotFraction of all flows.
	HotNodes int
	// HotFraction of flows target the hot set (e.g. 0.7).
	HotFraction      float64
	MeanInterarrival sim.Duration
}

// Hotspot generates uniform traffic with a configurable fraction aimed at a
// small hot destination set (the congestion pattern CRC pricing reacts to).
func Hotspot(rng *sim.RNG, cfg HotspotConfig) []FlowSpec {
	if cfg.HotNodes < 1 || cfg.HotNodes >= cfg.Nodes {
		panic("workload: hotspot hot set out of range")
	}
	if cfg.HotFraction < 0 || cfg.HotFraction > 1 {
		panic("workload: hot fraction out of [0,1]")
	}
	specs := make([]FlowSpec, 0, cfg.Flows)
	var t sim.Time
	for i := 0; i < cfg.Flows; i++ {
		if cfg.MeanInterarrival > 0 {
			t = t.Add(rng.ExpDuration(cfg.MeanInterarrival))
		}
		src := rng.Intn(cfg.Nodes)
		var dst int
		if rng.Float64() < cfg.HotFraction {
			dst = rng.Intn(cfg.HotNodes) // hot set is nodes [0, HotNodes)
		} else {
			dst = rng.Intn(cfg.Nodes)
		}
		if dst == src {
			dst = (dst + 1) % cfg.Nodes
		}
		specs = append(specs, FlowSpec{Src: src, Dst: dst, Bytes: cfg.Size.Sample(rng), At: t, Label: "hotspot"})
	}
	return specs
}

// Incast generates a many-to-one burst: fanIn sources each send size bytes
// to dst simultaneously (the reducer-side pattern).
func Incast(rng *sim.RNG, nodes, dst, fanIn int, size SizeDist) []FlowSpec {
	if fanIn >= nodes {
		panic("workload: incast fan-in must leave the destination out")
	}
	perm := rng.Perm(nodes)
	specs := make([]FlowSpec, 0, fanIn)
	for _, src := range perm {
		if src == dst {
			continue
		}
		specs = append(specs, FlowSpec{Src: src, Dst: dst, Bytes: size.Sample(rng), Label: "incast"})
		if len(specs) == fanIn {
			break
		}
	}
	return specs
}

// ShuffleConfig parameterizes a MapReduce shuffle.
type ShuffleConfig struct {
	// Mappers and Reducers are node index sets; they may overlap.
	Mappers, Reducers []int
	// BytesPerPair is the partition size each mapper sends each reducer.
	BytesPerPair int64
	// Jitter staggers flow starts uniformly in [0, Jitter).
	Jitter sim.Duration
}

// Shuffle generates the all-to-all mapper→reducer transfer of one MapReduce
// job. The job completes when every flow completes; JobCompletionTime
// computes that barrier, which is how "the slowest link pulls down the
// performance of an entire system".
func Shuffle(rng *sim.RNG, cfg ShuffleConfig) []FlowSpec {
	if len(cfg.Mappers) == 0 || len(cfg.Reducers) == 0 {
		panic("workload: shuffle needs mappers and reducers")
	}
	if cfg.BytesPerPair <= 0 {
		panic("workload: shuffle needs positive partition size")
	}
	specs := make([]FlowSpec, 0, len(cfg.Mappers)*len(cfg.Reducers))
	for _, m := range cfg.Mappers {
		for _, r := range cfg.Reducers {
			if m == r {
				continue // local partition: no fabric traffic
			}
			var at sim.Time
			if cfg.Jitter > 0 {
				at = sim.Time(rng.Int63() % int64(cfg.Jitter))
			}
			specs = append(specs, FlowSpec{Src: m, Dst: r, Bytes: cfg.BytesPerPair, At: at, Label: "shuffle"})
		}
	}
	return specs
}

// Range returns the node index list [0, n).
func Range(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// ValidateSpecs checks all specs target the fabric and carry bytes.
func ValidateSpecs(specs []FlowSpec, nodes int) error {
	for i, s := range specs {
		if s.Src < 0 || s.Src >= nodes || s.Dst < 0 || s.Dst >= nodes {
			return fmt.Errorf("workload: spec %d endpoints (%d,%d) outside %d nodes", i, s.Src, s.Dst, nodes)
		}
		if s.Src == s.Dst {
			return fmt.Errorf("workload: spec %d is a self-flow", i)
		}
		if s.Bytes <= 0 {
			return fmt.Errorf("workload: spec %d has no bytes", i)
		}
	}
	return nil
}
