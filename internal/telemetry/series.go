package telemetry

import "slices"

// Series is a bounded, fixed-interval sim-time time series. Observations
// carry their own picosecond timestamps; each lands in the window
// at/interval and folds into that window's streaming summary
// (count/sum/min/max/last) — no reservoir, no per-observation storage, so
// memory is O(windows) regardless of event rate. When the window count
// exceeds the bound the oldest windows fall off and are tallied in
// Evicted; a long-running service-mode Cluster therefore holds a sliding
// recent view at constant cost. The windows form a ring, so opening a
// window costs O(1) even on a full series.
//
// Observations must not move backwards past a full window: an observation
// older than the newest open window is folded into that newest window
// rather than resurrecting a closed one. Event-loop emitters satisfy the
// monotone case by construction.
type Series struct {
	interval   int64 // window width, picoseconds
	maxWindows int
	// windows is a ring of len ≤ maxWindows: time-ordered from head,
	// wrapping at the end. head is 0 until the ring is full.
	windows []Window
	head    int
	evicted int64
}

// Window is one interval's streaming summary. Index is the window ordinal
// (start time = Index × interval); windows with no observations are not
// materialized.
type Window struct {
	Index int64
	Count int64
	Sum   float64
	Min   float64
	Max   float64
	Last  float64
}

// NewSeries returns a series with the given window width in picoseconds,
// keeping at most maxWindows recent windows. Both must be positive.
func NewSeries(intervalPs int64, maxWindows int) *Series {
	if intervalPs <= 0 || maxWindows <= 0 {
		panic("telemetry: Series interval and window bound must be positive")
	}
	return &Series{interval: intervalPs, maxWindows: maxWindows}
}

// Evicted returns how many closed windows fell off the retention bound.
func (s *Series) Evicted() int64 { return s.evicted }

// Observe folds value v observed at atPs into its window.
func (s *Series) Observe(atPs int64, v float64) {
	idx := atPs / s.interval
	if n := len(s.windows); n > 0 {
		last := &s.windows[(s.head+n-1)%n]
		if idx <= last.Index {
			// Same window, or a straggler behind the open one: fold into
			// the newest window so closed summaries stay immutable.
			last.Count++
			last.Sum += v
			if v < last.Min {
				last.Min = v
			}
			if v > last.Max {
				last.Max = v
			}
			last.Last = v
			return
		}
	}
	w := Window{Index: idx, Count: 1, Sum: v, Min: v, Max: v, Last: v}
	if len(s.windows) < s.maxWindows {
		s.windows = append(s.windows, w)
		return
	}
	// Full: the new window replaces the oldest.
	s.windows[s.head] = w
	s.head = (s.head + 1) % s.maxWindows
	s.evicted++
}

// Windows returns the retained windows in time order, rotating the ring
// into that order in place. The slice aliases internal storage; callers
// must not mutate it, and the next Observe may overwrite it.
func (s *Series) Windows() []Window {
	if s.head > 0 {
		slices.Reverse(s.windows[:s.head])
		slices.Reverse(s.windows[s.head:])
		slices.Reverse(s.windows)
		s.head = 0
	}
	return s.windows
}
