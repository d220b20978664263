package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"rackfab/internal/experiment"
)

// TestProfilesWritten runs a quick experiment between startProfiles and
// its stop function and checks that both profiles were written as
// gzipped pprof files.
func TestProfilesWritten(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.out"), filepath.Join(dir, "mem.out")
	stop, err := startProfiles(cpu, mem)
	if err != nil {
		t.Fatal(err)
	}
	quiet(t)
	if err := runOne("fig1", experiment.Config{Scale: experiment.Quick, Parallel: 1}, "", false); err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{cpu, mem} {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(b, []byte{0x1f, 0x8b}) {
			t.Fatalf("%s is not a gzipped pprof profile (%d bytes)", filepath.Base(path), len(b))
		}
	}
}
