package trace

import (
	"fmt"
	"io"
	"sort"
	"sync"
)

// Set is a collection of named recorders for experiment sweeps: each trial
// adopts its cluster's recorder under its trial name, trials run in
// parallel worker pools, and export walks the names in sorted order — so
// the written bytes depend only on each trial's (deterministic) recorder
// contents, never on which worker finished first. The mutex guards only
// registration; a recorder itself stays single-threaded inside its trial's
// private world.
type Set struct {
	mu    sync.Mutex
	names []string
	recs  map[string]*Recorder
}

// NewSet returns an empty set.
func NewSet() *Set {
	return &Set{recs: make(map[string]*Recorder)}
}

// Add registers r under name. Nil sets and nil recorders are no-ops, so
// call sites need no tracing-off guard. Registering one name twice is a
// wiring bug and panics.
func (s *Set) Add(name string, r *Recorder) {
	if s == nil || r == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.recs[name]; dup {
		panic(fmt.Sprintf("trace: duplicate recorder %q", name))
	}
	s.names = append(s.names, name)
	s.recs[name] = r
}

// Len returns how many recorders are registered.
func (s *Set) Len() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.names)
}

// sorted returns the registered names in sorted order — the export order,
// chosen so parallel registration order cannot leak into the bytes.
func (s *Set) sorted() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := append([]string(nil), s.names...)
	sort.Strings(names)
	return names
}

// WriteText writes every recorder's stable text form, sections ordered by
// name.
func (s *Set) WriteText(w io.Writer) error {
	if s == nil {
		return nil
	}
	for _, name := range s.sorted() {
		if _, err := fmt.Fprintf(w, "== trace %s ==\n", name); err != nil {
			return err
		}
		if err := s.recs[name].WriteText(w); err != nil {
			return err
		}
	}
	return nil
}

// WriteJSON writes one Chrome trace-event JSON document holding every
// recorder, each as its own Perfetto process (pid = sorted-name index,
// process_name = trial name).
func (s *Set) WriteJSON(w io.Writer) error {
	if s == nil {
		return nil
	}
	first := true
	var werr error
	emit := func(line string) {
		if werr != nil {
			return
		}
		sep := ",\n "
		if first {
			sep = "[\n "
			first = false
		}
		_, werr = fmt.Fprintf(w, "%s%s", sep, line)
	}
	for pid, name := range s.sorted() {
		s.recs[name].writeJSONInto(emit, pid, name)
	}
	if first {
		if _, err := fmt.Fprintf(w, "[\n"); err != nil {
			return err
		}
	}
	if werr != nil {
		return werr
	}
	_, err := fmt.Fprintf(w, "\n]\n")
	return err
}
