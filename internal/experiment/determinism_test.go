package experiment

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var (
	update = flag.Bool("update", false, "rewrite the goldens the run compares with from the current output")
	full   = flag.Bool("full", false, "also compare every experiment's Full-scale output with testdata/full/<id>.golden")
)

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
	for _, id := range IDs() {
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			seq := fingerprint(t, id, Sequential(Quick))
			matchGolden(t, id, filepath.Join("testdata", "quick", id+".golden"), seq)
			par := fingerprint(t, id, Config{Scale: Quick, Parallel: 4})
			if par != seq {
				t.Fatalf("%s diverges under the parallel runner:\n--- sequential ---\n%s\n--- parallel(4) ---\n%s", id, seq, par)
			}
		})
	}
}

// TestFullScaleGoldens pins the paper-scale runs: every registered
// experiment, run sequentially at Full scale, must render the bytes
// committed in testdata/full/<id>.golden. The run takes minutes, so it
// needs the -full flag and is skipped under -short:
//
//	go test ./internal/experiment -run TestFullScaleGoldens -timeout 30m -full
//
// The package comes first: go test hands every argument after -full, a
// flag it does not know, to the test binary. -update rewrites the goldens
// it compares with, under the same rule as the Quick ones. The subtests
// run one at a time, so at most one Full-scale fabric (e8's 4,096 nodes
// the largest) is live at once.
func TestFullScaleGoldens(t *testing.T) {
	if !*full || testing.Short() {
		t.Skip("full-scale goldens run only with -full and without -short")
	}
	for _, id := range IDs() {
		t.Run(id, func(t *testing.T) {
			got := fingerprint(t, id, Sequential(Full))
			matchGolden(t, id, filepath.Join("testdata", "full", id+".golden"), got)
		})
	}
}

// fingerprint runs experiment id under cfg and returns its table's
// Fingerprint.
func fingerprint(t *testing.T, id string, cfg Config) string {
	t.Helper()
	run, ok := Lookup(id)
	if !ok {
		t.Fatalf("experiment %q missing from registry", id)
	}
	tab, err := run(cfg)
	if err != nil {
		t.Fatalf("%s at %+v: %v", id, cfg, err)
	}
	return tab.Fingerprint()
}

// matchGolden fails unless got equals the golden file's bytes; -update
// writes got there first.
func matchGolden(t *testing.T, id, golden, got string) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%s: %v (run with -update to create it)", id, err)
	}
	if got != string(want) {
		t.Fatalf("%s differs from %s:\n--- golden ---\n%s\n--- got ---\n%s", id, golden, want, got)
	}
}
