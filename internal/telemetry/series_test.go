package telemetry

import (
	"math"
	"slices"
	"testing"
)

func TestSeriesFoldsIntoWindows(t *testing.T) {
	s := NewSeries(1000, 8)
	s.Observe(100, 2)
	s.Observe(900, 4)
	s.Observe(2500, 1) // skips window 1 entirely
	wins := s.Windows()
	if len(wins) != 2 {
		t.Fatalf("got %d windows, want 2", len(wins))
	}
	w0 := wins[0]
	if w0.Index != 0 || w0.Count != 2 || w0.Sum != 6 || w0.Min != 2 || w0.Max != 4 || w0.Last != 4 {
		t.Fatalf("window 0 = %+v", w0)
	}
	if wins[1].Index != 2 {
		t.Fatalf("window 1 index = %d, want 2 (empty windows must not materialize)", wins[1].Index)
	}
}

func TestSeriesStragglersFoldIntoNewestWindow(t *testing.T) {
	s := NewSeries(1000, 8)
	s.Observe(5500, 1)
	s.Observe(200, 9) // behind the open window: folds forward, not backwards
	wins := s.Windows()
	if len(wins) != 1 {
		t.Fatalf("got %d windows, want 1", len(wins))
	}
	if wins[0].Count != 2 || wins[0].Max != 9 {
		t.Fatalf("straggler not folded into newest window: %+v", wins[0])
	}
}

func TestSeriesEvictsOldest(t *testing.T) {
	s := NewSeries(10, 3)
	for i := int64(0); i < 5; i++ {
		s.Observe(i*10, float64(i))
	}
	if s.Evicted() != 2 {
		t.Fatalf("Evicted = %d, want 2", s.Evicted())
	}
	wins := s.Windows()
	if len(wins) != 3 || wins[0].Index != 2 || wins[2].Index != 4 {
		t.Fatalf("retained windows = %+v", wins)
	}
}

// TestSeriesRingWraps streams windows through a full series several times
// over (some windows skipped, several observations per window) and holds
// Windows and Evicted to the last maxWindows windows of a plain
// append-only record, including after a read in the middle of the stream.
func TestSeriesRingWraps(t *testing.T) {
	const maxWindows = 7
	s := NewSeries(10, maxWindows)
	var all []Window
	check := func(at string) {
		t.Helper()
		want := all[max(0, len(all)-maxWindows):]
		if got := s.Windows(); !slices.Equal(got, want) {
			t.Fatalf("%s: Windows() = %+v\nwant %+v", at, got, want)
		}
		if got, want := s.Evicted(), int64(len(all)-len(want)); got != want {
			t.Fatalf("%s: Evicted() = %d, want %d", at, got, want)
		}
	}
	for idx := int64(0); len(all) < 5*maxWindows+3; idx++ {
		if idx%4 == 3 {
			continue // an empty window is never materialized
		}
		w := Window{Index: idx, Min: math.Inf(1), Max: math.Inf(-1)}
		for k := int64(0); k <= idx%3; k++ {
			v := float64(idx*10 + k)
			s.Observe(idx*10+k, v)
			w.Count++
			w.Sum += v
			w.Min = min(w.Min, v)
			w.Max = max(w.Max, v)
			w.Last = v
		}
		all = append(all, w)
		if len(all) == 2*maxWindows+3 {
			check("mid-stream")
		}
	}
	check("end of stream")
}

func TestSeriesRejectsNonPositiveInterval(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewSeries(0, …) did not panic")
		}
	}()
	NewSeries(0, 4)
}

func TestHistogramTailQuantiles(t *testing.T) {
	h := NewHistogram()
	for i := int64(1); i <= 1000; i++ {
		h.Record(i)
	}
	// The histogram is bucketed, so quantiles are bucket lower bounds:
	// assert the ordering and bounds rather than exact ranks.
	p50, p99, p999, max := h.Quantile(0.5), h.Quantile(0.99), h.Quantile(0.999), h.Max()
	if !(p50 <= p99 && p99 <= p999 && p999 <= max) {
		t.Fatalf("quantiles out of order: p50=%v p99=%v p999=%v max=%v", p50, p99, p999, max)
	}
	if p999 <= 900 || max != 1000 {
		t.Fatalf("p999 = %v (max %v) over samples 1..1000 — tail estimate off", p999, max)
	}
}
