package rackfab

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"rackfab/internal/netstack"
	"rackfab/internal/sim"
	"rackfab/internal/switching"
	"rackfab/internal/telemetry"
	"rackfab/internal/topo"
	"rackfab/internal/workload"
)

// sloPerHopLatency is the per-hop traversal latency the ideal-FCT model
// charges — the switch hop the fluid engine charges too, so the SLO
// denominator is identical across engines.
const sloPerHopLatency = switching.DefaultPipelineLatency

// SLOReport summarizes completion-time SLO attainment: the fraction of
// completed flows whose FCT stayed within TargetX× their ideal
// (uncontended) FCT — bytes serialized at the fabric wire rate plus the
// shortest-path hop count of per-hop latency. Stretch is FCT over ideal;
// a flow that never queued and never shared a link scores 1. Zero-valued
// until at least one flow completes.
type SLOReport struct {
	// TargetX is the SLO multiplier k (Config.SLOTargetX, default 4).
	TargetX float64
	// Flows is the completed population; Attained how many met the target.
	Flows, Attained int64
	// AttainPct is Attained over Flows as a percentage.
	AttainPct float64
	// P50Stretch, P99Stretch, MaxStretch summarize the stretch distribution
	// (nearest-rank quantiles).
	P50Stretch, P99Stretch, MaxStretch float64
}

// sloTargetX resolves the configured SLO multiplier.
func (c *Cluster) sloTargetX() float64 {
	if c.cfg.SLOTargetX > 0 {
		return c.cfg.SLOTargetX
	}
	return 4
}

// fillFlows fills Report's per-flow sections, FlowsCompleted, FCT and SLO,
// from the completed flow handles, the same way on both engines. SLO
// ideals use the fastest link rate in the fabric as the wire rate and the
// backend's shortest-path hop counts over currently-live links; a flow
// unreachable at report time stays out of the SLO population. Flows are
// taken grouped by source, so the packet engine's one breadth-first search
// serves each distinct source; telemetry.Percentiles sorts its samples, so
// that order cannot change the report.
func (c *Cluster) fillFlows(r *Report) {
	handles := c.be.flows()
	done := make([]int32, 0, len(handles))
	fcts := make([]sim.Duration, 0, len(handles))
	var sum sim.Duration
	for i, f := range handles {
		if _, fct, ok := f.result(); ok {
			done = append(done, int32(i))
			fcts = append(fcts, fct)
			sum += fct
		}
	}
	n := len(fcts)
	if n == 0 {
		return
	}
	p50, p99, top := telemetry.Percentiles(fcts)
	r.FlowsCompleted = int64(n)
	r.FCT = Summary{
		Count:  int64(n),
		MeanUs: float64(sum) / float64(n) / psPerUs,
		P50Us:  float64(p50) / psPerUs,
		P99Us:  float64(p99) / psPerUs,
		MaxUs:  float64(top) / psPerUs,
	}
	rate := c.wireRate()
	if rate <= 0 {
		return
	}
	slices.SortFunc(done, func(a, b int32) int { return cmp.Compare(handles[a].spec.Src, handles[b].spec.Src) })
	hopsOf := c.be.hops()
	stretches := make([]float64, 0, n)
	for _, i := range done {
		f := handles[i]
		hops := hopsOf(f.Endpoints())
		if hops < 0 {
			continue
		}
		_, fct, _ := f.result()
		if ideal := workload.IdealFCT(f.Bytes(), rate, hops, sloPerHopLatency); ideal > 0 {
			stretches = append(stretches, float64(fct)/float64(ideal))
		}
	}
	if len(stretches) == 0 {
		return
	}
	r.SLO = SLOReport(telemetry.ComputeSLO(stretches, c.sloTargetX()))
}

// wireRate is the fastest link rate in the fabric: the rate an ideal
// (uncontended) FCT serializes at.
func (c *Cluster) wireRate() (rate float64) {
	for _, e := range c.graph.Edges() {
		rate = max(rate, e.Link.EffectiveRate())
	}
	return rate
}

// TokenPaced re-times flow releases through per-receiver token pacers — the
// PL2-style receiver-driven admission path. Flows toward each destination
// are granted in deterministic arrival order (ties broken by src, bytes,
// label), paced at the receiver's best incident link rate under a credit
// window of windowBytes granted-but-undrained bytes (0 = the largest single
// flow toward that receiver, which serializes an incast). The returned
// specs are the inputs with shifted At values, in the original positions;
// hand them to either engine unchanged — the transform itself is a pure
// function of the spec multiset, so it is engine-agnostic and
// byte-deterministic by construction.
func TokenPaced(c *Cluster, specs []FlowSpec, windowBytes int64) ([]FlowSpec, error) {
	out := append([]FlowSpec(nil), specs...)
	idx := make([]int, len(specs))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		x, y := specs[idx[a]], specs[idx[b]]
		if x.Dst != y.Dst {
			return x.Dst < y.Dst
		}
		if x.At != y.At {
			return x.At < y.At
		}
		if x.Src != y.Src {
			return x.Src < y.Src
		}
		if x.Bytes != y.Bytes {
			return x.Bytes < y.Bytes
		}
		return x.Label < y.Label
	})
	for g := 0; g < len(idx); {
		dst := specs[idx[g]].Dst
		end := g
		for end < len(idx) && specs[idx[end]].Dst == dst {
			end++
		}
		if dst < 0 || dst >= c.Nodes() {
			return nil, fmt.Errorf("rackfab: token pacing: destination %d out of range", dst)
		}
		var rate float64
		for _, e := range c.graph.Adjacent(topo.NodeID(dst)) {
			if r := e.Link.EffectiveRate(); r > rate {
				rate = r
			}
		}
		if rate <= 0 {
			return nil, fmt.Errorf("rackfab: token pacing: node %d has no usable link", dst)
		}
		win := windowBytes
		if win <= 0 {
			for _, i := range idx[g:end] {
				if specs[i].Bytes > win {
					win = specs[i].Bytes
				}
			}
		}
		p, err := netstack.NewTokenPacer(rate, win)
		if err != nil {
			return nil, err
		}
		for _, i := range idx[g:end] {
			rel, err := p.Grant(sim.Time(simDur(specs[i].At)), specs[i].Bytes)
			if err != nil {
				return nil, err
			}
			out[i].At = fromSim(sim.Duration(rel))
		}
		g = end
	}
	return out, nil
}
