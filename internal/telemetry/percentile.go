package telemetry

import (
	"cmp"
	"slices"
)

// NearestRank returns the 0-based index of the pct-th percentile sample
// under the nearest-rank convention: the ceil(pct/100·n)-th smallest of n
// sorted samples. Percentiles is its one caller; rank a sample set through
// that. Histogram.Quantile resolves the same rank but returns the lower
// bound of that sample's bucket, so a histogram summary reads up to 6.25%
// below the exact sample this index selects.
func NearestRank(n, pct int) int {
	idx := (n*pct + 99) / 100 // ceil(n·pct/100)
	if idx < 1 {
		idx = 1
	}
	return idx - 1
}

// Percentiles sorts samples in place and returns their exact nearest-rank
// 50th and 99th percentiles and their maximum, or zeros for an empty set.
// The façade's Report and the experiments' flow summary take every
// completion-time and stretch percentile from here.
func Percentiles[T cmp.Ordered](samples []T) (p50, p99, top T) {
	n := len(samples)
	if n == 0 {
		return p50, p99, top
	}
	slices.Sort(samples)
	return samples[NearestRank(n, 50)], samples[NearestRank(n, 99)], samples[n-1]
}

// SLOSummary describes how a flow population met a completion-time SLO
// expressed as a multiple of each flow's ideal (uncontended) FCT — the
// PL2-style tail-predictability metric: what fraction of flows finished
// within TargetX× their ideal, plus the stretch distribution behind it.
type SLOSummary struct {
	// TargetX is the SLO multiplier k: a flow attains the SLO when
	// FCT ≤ k × ideal FCT.
	TargetX float64
	// Flows is the population size, Attained how many met the target.
	Flows, Attained int64
	// AttainPct is Attained over Flows as a percentage (0 when empty).
	AttainPct float64
	// P50Stretch, P99Stretch, MaxStretch summarize the stretch (FCT/ideal)
	// distribution by nearest rank.
	P50Stretch, P99Stretch, MaxStretch float64
}

// ComputeSLO summarizes per-flow stretch samples (FCT divided by ideal FCT,
// ≥ 1 for any physical run) against the k×ideal target. It sorts stretches
// in place; an empty population returns a zero summary with TargetX set.
func ComputeSLO(stretches []float64, targetX float64) SLOSummary {
	s := SLOSummary{TargetX: targetX}
	n := len(stretches)
	if n == 0 {
		return s
	}
	for _, v := range stretches {
		if v <= targetX {
			s.Attained++
		}
	}
	s.Flows = int64(n)
	s.AttainPct = 100 * float64(s.Attained) / float64(n)
	s.P50Stretch, s.P99Stretch, s.MaxStretch = Percentiles(stretches)
	return s
}
