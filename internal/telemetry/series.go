package telemetry

// Series is a bounded, fixed-interval sim-time time series. Observations
// carry their own picosecond timestamps; each lands in the window
// at/interval and folds into that window's streaming summary
// (count/sum/min/max/last) — no reservoir, no per-observation storage, so
// memory is O(windows) regardless of event rate. When the window count
// exceeds the bound the oldest windows fall off and are tallied in
// Evicted; a long-running service-mode Cluster therefore holds a sliding
// recent view at constant cost.
//
// Observations must not move backwards past a full window: an observation
// older than the newest open window is folded into that newest window
// rather than resurrecting a closed one. Event-loop emitters satisfy the
// monotone case by construction.
type Series struct {
	interval   int64 // window width, picoseconds
	maxWindows int
	windows    []Window // time-ordered, len ≤ maxWindows
	evicted    int64
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
		last := &s.windows[n-1]
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
	if len(s.windows) == s.maxWindows {
		copy(s.windows, s.windows[1:])
		s.windows = s.windows[:s.maxWindows-1]
		s.evicted++
	}
	s.windows = append(s.windows, Window{
		Index: idx, Count: 1, Sum: v, Min: v, Max: v, Last: v,
	})
}

// Windows returns the retained windows in time order. The slice aliases
// internal storage; callers must not mutate it.
func (s *Series) Windows() []Window { return s.windows }
