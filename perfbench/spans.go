package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// layer's public API (spans inside the program are a later change).
type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`     // the cycle or service tick the span belongs to
	Parent int    `json:"parent"` // index of the enclosing span, -1 at the root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the traced and untraced internal passes share one code path.
type tracer struct {
	epoch time.Time
	spans []span
	open  []int
	id    int64
}

func newTracer() *tracer { return &tracer{epoch: hostNow()} }

// hostNow reads the host clock. Every host-time measurement the benchmark
// makes goes through it, and no reading reaches a simulated result or a
// digest.
func hostNow() time.Time {
	return time.Now() //det:wallclock the benchmark measures host time; readings never reach simulated results or digests
}

// hostSince returns the host time elapsed since t.
func hostSince(t time.Time) time.Duration { return hostNow().Sub(t) }

// setID tags the spans begun from now on (one id per cycle or tick).
func (t *tracer) setID(id int64) {
	if t != nil {
		t.id = id
	}
}

// begin opens a span nested in the innermost open one and returns its index.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, ID: t.id, Parent: parent, Start: int64(hostSince(t.epoch))})
	i := len(t.spans) - 1
	t.open = append(t.open, i)
	return i
}

// end closes span i, which must be the innermost open span.
func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	t.spans[i].End = int64(hostSince(t.epoch))
	t.open = t.open[:len(t.open)-1]
}

// spanStats aggregates the closed spans of one name.
type spanStats struct {
	total time.Duration
	durs  []time.Duration
}

// byName groups span durations by span name.
func (t *tracer) byName() map[string]*spanStats {
	out := map[string]*spanStats{}
	for _, s := range t.spans {
		st := out[s.Name]
		if st == nil {
			st = &spanStats{}
			out[s.Name] = st
		}
		d := time.Duration(s.End - s.Start)
		st.total += d
		st.durs = append(st.durs, d)
	}
	return out
}

// selfByLayer sums each span's self time — its duration minus the part its
// child spans cover — under its layer, the span name's prefix before '.'.
func (t *tracer) selfByLayer() map[string]time.Duration {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]time.Duration{}
	for i, s := range t.spans {
		layer, _, _ := strings.Cut(s.Name, ".")
		out[layer] += time.Duration(s.End - s.Start - child[i])
	}
	return out
}

// write stores the spans as JSON under dir, named after the workload and seed.
func (t *tracer) write(dir, workload string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	b, err := json.Marshal(t.spans)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}

// percentile returns the nearest-rank pct-th percentile of ds.
func percentile(ds []time.Duration, pct float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	k := int(math.Ceil(float64(len(s))*pct/100)) - 1
	return s[max(0, min(k, len(s)-1))]
}

// median returns the median of xs (the mean of the middle pair when even).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
