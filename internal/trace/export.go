package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"rackfab/internal/telemetry"
)

// This file renders a Recorder two ways: a stable text form whose exact
// bytes are part of the determinism fingerprint (TestTraceDeterministic
// compares them across worker counts), and Chrome trace-event JSON that
// Perfetto loads directly — one counter track per link (utilization and
// queue depth from the windowed series), flows as async spans, faults and
// refills as instants on their link's track. Both writers emit in a fixed
// order from slices only; no map is ever ranged here.

// WriteText writes the stable text form: a header, every retained event
// oldest-first, then each link's windowed series.
func (r *Recorder) WriteText(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if r == nil {
		fmt.Fprintf(bw, "rackfab-trace v2 disabled\n")
		return bw.Flush()
	}
	fmt.Fprintf(bw, "rackfab-trace v2 events=%d retained=%d overwritten=%d\n",
		r.total, len(r.events), r.Dropped())
	for _, ev := range r.Events() {
		fmt.Fprintf(bw, "t=%dps %s flow=%d link=%s node=%d v=%d\n",
			int64(ev.At), ev.Kind, ev.Flow, r.linkName(ev.Link), ev.Node, ev.Value)
	}
	fmt.Fprintf(bw, "series interval=%dps windows<=%d\n", int64(SeriesInterval), SeriesWindows)
	for i := range r.links {
		ls := &r.links[i]
		writeSeriesText(bw, ls.name, "util", ls.util)
		writeSeriesText(bw, ls.name, "depth", ls.depth)
	}
	return bw.Flush()
}

func (r *Recorder) linkName(li int32) string {
	if li < 0 || int(li) >= len(r.links) {
		return "-"
	}
	return r.links[int(li)].name
}

// writeSeriesText emits one series: a descriptor line, then one line per
// retained window. Empty series are skipped so idle links cost no bytes.
func writeSeriesText(w io.Writer, link, kind string, s *telemetry.Series) {
	wins := s.Windows()
	if len(wins) == 0 {
		return
	}
	fmt.Fprintf(w, "series link=%s kind=%s windows=%d evicted=%d\n", link, kind, len(wins), s.Evicted())
	for _, win := range wins {
		fmt.Fprintf(w, "  w=%d n=%d sum=%s min=%s max=%s last=%s\n",
			win.Index, win.Count, g(win.Sum), g(win.Min), g(win.Max), g(win.Last))
	}
}

// g formats a float the same way on every platform.
func g(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// WriteJSON writes Chrome trace-event JSON (the Perfetto/chrome://tracing
// interchange format) for one recorder under process id pid, named name.
// Layout: tid 0 carries flow spans (async b/e pairs keyed by flow ID) and
// global instants; tid 1+i is link i's track, carrying its enqueue/
// dequeue/fault instants plus "util" and "depth" counter samples from the
// windowed series. Timestamps are microseconds of simulated time.
func (r *Recorder) WriteJSON(w io.Writer) error {
	bw := bufio.NewWriter(w)
	first := true
	emit := func(line string) {
		if first {
			fmt.Fprintf(bw, "[\n")
			first = false
		} else {
			fmt.Fprintf(bw, ",\n")
		}
		fmt.Fprintf(bw, " %s", line)
	}
	r.writeJSONInto(emit, 0, "rackfab")
	if first {
		fmt.Fprintf(bw, "[\n")
	}
	fmt.Fprintf(bw, "\n]\n")
	return bw.Flush()
}

// writeJSONInto emits the recorder's trace events through emit, scoped to
// one Perfetto process. Shared by WriteJSON and Set.WriteJSON (which maps
// each named recorder to its own pid so trial tracks group cleanly).
func (r *Recorder) writeJSONInto(emit func(string), pid int, name string) {
	emit(fmt.Sprintf(`{"ph":"M","pid":%d,"tid":0,"name":"process_name","args":{"name":%s}}`, pid, q(name)))
	emit(fmt.Sprintf(`{"ph":"M","pid":%d,"tid":0,"name":"thread_name","args":{"name":"flows"}}`, pid))
	if r == nil {
		return
	}
	for i := range r.links {
		emit(fmt.Sprintf(`{"ph":"M","pid":%d,"tid":%d,"name":"thread_name","args":{"name":%s}}`, pid, i+1, q(r.links[i].name)))
	}
	for _, ev := range r.Events() {
		ts := tsUS(ev.At)
		switch ev.Kind {
		case FlowArrive:
			emit(fmt.Sprintf(`{"ph":"b","cat":"flow","id":%d,"name":"flow %d","pid":%d,"tid":0,"ts":%s,"args":{"src":%d,"bytes":%d}}`,
				ev.Flow, ev.Flow, pid, ts, ev.Node, ev.Value))
		case FlowComplete:
			emit(fmt.Sprintf(`{"ph":"e","cat":"flow","id":%d,"name":"flow %d","pid":%d,"tid":0,"ts":%s,"args":{"dst":%d,"latency_ps":%d}}`,
				ev.Flow, ev.Flow, pid, ts, ev.Node, ev.Value))
		default:
			tid := 0
			if ev.Link >= 0 && int(ev.Link) < len(r.links) {
				tid = int(ev.Link) + 1
			}
			emit(fmt.Sprintf(`{"ph":"i","s":"t","name":%s,"pid":%d,"tid":%d,"ts":%s,"args":{"flow":%d,"node":%d,"v":%d}}`,
				q(ev.Kind.String()), pid, tid, ts, ev.Flow, ev.Node, ev.Value))
		}
	}
	interval := int64(SeriesInterval)
	for i := range r.links {
		ls := &r.links[i]
		// Utilization per window: summed busy fractions (packet) or the
		// latest allocated share (fluid) — 1.0 is a saturated link.
		for _, win := range ls.util.Windows() {
			util := win.Last
			if r.utilSummed {
				util = win.Sum
			}
			emit(fmt.Sprintf(`{"ph":"C","name":%s,"pid":%d,"tid":%d,"ts":%s,"args":{"util":%s}}`,
				q("util "+ls.name), pid, i+1, tsUS(winStart(win, interval)), g(util)))
		}
		for _, win := range ls.depth.Windows() {
			emit(fmt.Sprintf(`{"ph":"C","name":%s,"pid":%d,"tid":%d,"ts":%s,"args":{"depth":%s}}`,
				q("depth "+ls.name), pid, i+1, tsUS(winStart(win, interval)), g(win.Max)))
		}
	}
}

func winStart(win telemetry.Window, interval int64) int64 {
	return win.Index * interval
}

// tsUS renders a picosecond instant as microseconds with fixed precision.
func tsUS[T ~int64](ps T) string {
	return strconv.FormatFloat(float64(ps)/1e6, 'f', 6, 64)
}

// q renders s as a JSON string. Track names are machine-generated ASCII;
// the escaper handles quotes/backslashes/control bytes so arbitrary trial
// names survive.
func q(s string) string {
	var b strings.Builder
	b.WriteByte('"')
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"' || c == '\\':
			b.WriteByte('\\')
			b.WriteByte(c)
		case c < 0x20:
			fmt.Fprintf(&b, `\u%04x`, c)
		default:
			b.WriteByte(c)
		}
	}
	b.WriteByte('"')
	return b.String()
}
