package main

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rackfab"
	"rackfab/internal/experiment"
)

var update = flag.Bool("update", false, "rewrite testdata/trace_digests.txt from the current exports")

// TestTraceExportDigests pins the flight-recorder exports the CLI writes
// against committed SHA-256 digests, so a change that shifts every run
// equally still fails. The two exports carry the NIC and VOQ
// enqueue/dequeue depth events of the packet datapath:
//
//   - e12-quick.txt: rackfab -scale quick -parallel 1 -trace x.txt e12
//   - sim-shuffle.json: rackfab -trace x.json sim -width 4 -height 4 -workload shuffle
//
// Run with -update to rewrite testdata/trace_digests.txt; a change that
// does so says which export moved, and why, in CHANGES.md.
func TestTraceExportDigests(t *testing.T) {
	dir := t.TempDir()
	quiet(t)

	e12 := filepath.Join(dir, "e12-quick.txt")
	cfg := experiment.Config{Scale: experiment.Quick, Parallel: 1, Trace: rackfab.NewTraceSet(rackfab.TraceConfig{})}
	if err := runOne("e12", cfg, "", false); err != nil {
		t.Fatal(err)
	}
	if err := writeTraceSet(e12, cfg.Trace); err != nil {
		t.Fatal(err)
	}
	shuffle := filepath.Join(dir, "sim-shuffle.json")
	if err := runSim([]string{"-width", "4", "-height", "4", "-workload", "shuffle"}, "", shuffle); err != nil {
		t.Fatal(err)
	}

	var got strings.Builder
	for _, path := range []string{e12, shuffle} {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(b)
		fmt.Fprintf(&got, "%s %s\n", filepath.Base(path), hex.EncodeToString(sum[:]))
	}
	golden := filepath.Join("testdata", "trace_digests.txt")
	if *update {
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got.String() != string(want) {
		t.Fatalf("trace exports differ from %s:\n--- golden ---\n%s--- got ---\n%s", golden, want, got.String())
	}
}

// quiet sends the commands' table and report output to /dev/null for the
// rest of the test.
func quiet(t *testing.T) {
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = null
	t.Cleanup(func() {
		os.Stdout = stdout
		null.Close()
	})
}
