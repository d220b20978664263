package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"rackfab/internal/sim"
	"rackfab/internal/topo"
)

func TestRingOverwritesOldest(t *testing.T) {
	const extra = 6
	r := NewRecorder()
	for i := 0; i < Capacity+extra; i++ {
		r.Record(Event{At: sim.Time(i), Kind: Enqueue, Flow: int64(i), Link: -1, Node: -1})
	}
	if r.Total() != Capacity+extra {
		t.Fatalf("Total = %d, want %d", r.Total(), Capacity+extra)
	}
	if r.Dropped() != extra {
		t.Fatalf("Dropped = %d, want %d", r.Dropped(), extra)
	}
	evs := r.Events()
	if len(evs) != Capacity {
		t.Fatalf("retained %d events, want %d", len(evs), Capacity)
	}
	for i, ev := range evs {
		if want := int64(extra + i); ev.Flow != want {
			t.Fatalf("event %d: flow %d, want %d (oldest-first order broken)", i, ev.Flow, want)
		}
	}
}

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	r.InitLinks([]string{"a"}, true)
	r.Record(Event{})
	r.ObserveBusy(0, 0, 1)
	r.ObserveUtil(0, 0, 1)
	r.ObserveDepth(0, 0, 1)
	if r.Events() != nil || r.Total() != 0 || r.Dropped() != 0 {
		t.Fatal("nil recorder leaked state")
	}
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "disabled") {
		t.Fatalf("nil WriteText = %q", buf.String())
	}
	buf.Reset()
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("nil WriteJSON not valid JSON: %q", buf.String())
	}
}

// populate fills a recorder with a fixed event/series mixture.
func populate(r *Recorder) {
	g := topo.NewGrid(2, 2, topo.Options{})
	r.InitLinks(LinkNames(g), true)
	r.Record(Event{At: 1000, Kind: FlowArrive, Flow: 0, Link: -1, Node: 1, Value: 4096})
	r.Record(Event{At: 1500, Kind: FaultApply, Flow: -1, Link: 2, Node: -1, Value: 0})
	r.Record(Event{At: 2000, Kind: Enqueue, Flow: 0, Link: 1, Node: 0, Value: 3})
	r.Record(Event{At: 9000, Kind: FlowComplete, Flow: 0, Link: -1, Node: 2, Value: 8000})
	// Two quarter-window transmissions in link 0's first window.
	r.ObserveBusy(0, 500, float64(SeriesInterval)/4)
	r.ObserveBusy(0, 900, float64(SeriesInterval)/4)
	r.ObserveDepth(1, 2000, 3)
}

func TestExportsAreStableAndValid(t *testing.T) {
	render := func() (string, string) {
		r := NewRecorder()
		populate(r)
		var txt, js bytes.Buffer
		if err := r.WriteText(&txt); err != nil {
			t.Fatal(err)
		}
		if err := r.WriteJSON(&js); err != nil {
			t.Fatal(err)
		}
		return txt.String(), js.String()
	}
	t1, j1 := render()
	t2, j2 := render()
	if t1 != t2 {
		t.Fatal("text export not byte-stable across identical recorders")
	}
	if j1 != j2 {
		t.Fatal("JSON export not byte-stable across identical recorders")
	}
	if !json.Valid([]byte(j1)) {
		t.Fatalf("export is not valid JSON:\n%s", j1)
	}
	for _, want := range []string{"flow-arrive", "fault-apply", "sum=0.5", "n=2", `"ph":"b"`, `"ph":"e"`, `"ph":"C"`} {
		if !strings.Contains(t1+j1, want) {
			t.Fatalf("exports missing %q\ntext:\n%s\njson:\n%s", want, t1, j1)
		}
	}
}

func TestSetExportsInSortedNameOrder(t *testing.T) {
	render := func(order []string) string {
		s := NewSet()
		for _, name := range order {
			r := NewRecorder()
			r.Record(Event{At: 1, Kind: PhaseOpen, Flow: -1, Link: -1, Node: -1})
			s.Add(name, r)
		}
		var buf bytes.Buffer
		if err := s.WriteText(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a := render([]string{"b", "a", "c"})
	b := render([]string{"c", "b", "a"})
	if a != b {
		t.Fatalf("Set export depends on registration order:\n%s\nvs\n%s", a, b)
	}
	if ia, ib := strings.Index(a, "trace a"), strings.Index(a, "trace b"); ia > ib {
		t.Fatal("sections not in sorted name order")
	}
}

func TestSetRejectsDuplicateNames(t *testing.T) {
	s := NewSet()
	s.Add("x", NewRecorder())
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Add did not panic")
		}
	}()
	s.Add("x", NewRecorder())
}

func TestNilSetIsSafe(t *testing.T) {
	var s *Set
	s.Add("x", NewRecorder())
	if s.Len() != 0 {
		t.Fatal("nil set has length")
	}
	var buf bytes.Buffer
	if err := s.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestLinkNamesIndexByEdgeIndex(t *testing.T) {
	g := topo.NewGrid(3, 3, topo.Options{})
	names := LinkNames(g)
	if len(names) != g.EdgeIndexBound() {
		t.Fatalf("len(names) = %d, want %d", len(names), g.EdgeIndexBound())
	}
	for _, e := range g.Edges() {
		if !strings.HasPrefix(names[e.Index()], "L") {
			t.Fatalf("edge %d name %q", e.Index(), names[e.Index()])
		}
	}
}
