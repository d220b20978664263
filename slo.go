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

// fillSLO computes Report.SLO from every completed flow handle. Ideals use
// the fastest link rate in the fabric as the wire rate and shortest-path
// hop counts over currently-up links; flows that failed, never finished,
// or are unreachable at report time are excluded from the population.
// Flows are taken grouped by source, so one breadth-first search serves
// each distinct source; ComputeSLO sorts the stretches, so their order
// cannot change the report.
func (c *Cluster) fillSLO(r *Report) {
	handles := c.be.flows()
	if len(handles) == 0 {
		return
	}
	var rate float64
	for _, e := range c.graph.Edges() {
		if rr := e.Link.EffectiveRate(); rr > rate {
			rate = rr
		}
	}
	if rate <= 0 {
		return
	}
	done := make([]int32, 0, len(handles))
	for i, f := range handles {
		if !f.Failed() && f.Done() {
			done = append(done, int32(i))
		}
	}
	slices.SortFunc(done, func(a, b int32) int { return cmp.Compare(handles[a].spec.Src, handles[b].spec.Src) })
	hc := c.graph.NewHopCounter()
	var hops []int
	stretches := make([]float64, 0, len(done))
	for k, i := range done {
		f := handles[i]
		src, dst := f.Endpoints()
		if k == 0 || src != handles[done[k-1]].spec.Src {
			hops = hc.From(topo.NodeID(src))
		}
		h := hops[dst]
		if h < 0 {
			continue
		}
		fct, err := f.CompletionTime()
		if err != nil {
			continue
		}
		ideal := workload.IdealFCT(f.Bytes(), rate, h, sloPerHopLatency)
		if ideal <= 0 {
			continue
		}
		stretches = append(stretches, float64(simDur(fct))/float64(ideal))
	}
	if len(stretches) == 0 {
		return
	}
	s := telemetry.ComputeSLO(stretches, c.sloTargetX())
	r.SLO = SLOReport{
		TargetX: s.TargetX, Flows: s.Flows, Attained: s.Attained,
		AttainPct:  s.AttainPct,
		P50Stretch: s.P50Stretch, P99Stretch: s.P99Stretch, MaxStretch: s.MaxStretch,
	}
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
