package experiment

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/quick/<id>.golden from the current output")

// TestExperimentsDeterministic is the regression gate for the paper's
// reproducibility claim and for the parallel trial runner: every
// registered experiment, run at Quick scale,
//
//  1. renders the bytes committed in testdata/quick/<id>.golden on a
//     sequential run (so a change that shifts every run equally still
//     fails), and
//  2. renders the same bytes when its trials are fanned out across a
//     worker pool as when they run one at a time.
//
// Two independent runs are thus checked against the committed bytes; a
// second sequential run would add nothing the golden does not already pin.
//
// Comparison uses Table.Fingerprint, which masks columns explicitly
// marked volatile (wall-clock timings) and nothing else. Run with -update
// to rewrite the goldens; a change that does so lists each rewritten file,
// and why, in CHANGES.md.
func TestExperimentsDeterministic(t *testing.T) {
	// The two tens-of-seconds experiments are skipped in -short mode so
	// the full-suite race pass (`go test -race -short ./...`) stays under
	// a few minutes; the plain CI Test step still runs everything.
	slow := map[string]bool{"a2": true, "e5": true}
	for _, id := range IDs() {
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			if testing.Short() && slow[id] {
				t.Skipf("%s takes tens of seconds; skipped in -short (race) mode", id)
			}
			run, ok := Lookup(id)
			if !ok {
				t.Fatalf("experiment %q missing from registry", id)
			}
			render := func(cfg Config) string {
				tab, err := run(cfg)
				if err != nil {
					t.Fatalf("%s at %+v: %v", id, cfg, err)
				}
				return tab.Fingerprint()
			}
			seq1 := render(Sequential(Quick))
			golden := filepath.Join("testdata", "quick", id+".golden")
			if *update {
				if err := os.WriteFile(golden, []byte(seq1), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%s: %v (run with -update to create it)", id, err)
			}
			if seq1 != string(want) {
				t.Fatalf("%s differs from %s:\n--- golden ---\n%s\n--- got ---\n%s", id, golden, want, seq1)
			}
			par := render(Config{Scale: Quick, Parallel: 4})
			if par != seq1 {
				t.Fatalf("%s diverges under the parallel runner:\n--- sequential ---\n%s\n--- parallel(4) ---\n%s", id, seq1, par)
			}
		})
	}
}
