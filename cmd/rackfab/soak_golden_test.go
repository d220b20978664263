package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSoakDigests pins the service soak that CI's soak step runs: an 8×8
// fluid grid at 20 flows/s of 1 MB flows, with 250 ms ticks and 4 Poisson
// link flaps. The soak runs 1 min unbroken, then split: checkpoint at
// 30 s, restore (the flap schedule comes from the checkpoint), run to
// 1 min. The two fingerprints must be equal, and the SHA-256 of the
// fingerprint and of the checkpoint file must equal
// testdata/soak_digests.txt. The fingerprint is the serve output from its
// "fingerprint:" line on, the bytes `sed -n '/fingerprint:/,$p'` keeps.
//
// Run with -update to rewrite testdata/soak_digests.txt; a change that
// does so says which digest moved, and why, in CHANGES.md.
func TestSoakDigests(t *testing.T) {
	soak := []string{"-width", "8", "-height", "8", "-tick", "250ms", "-rate", "20", "-sizes", "fixed:1000000"}
	flaps := []string{"-flaps", "4", "-flap-start", "5s", "-flap-gap", "10s", "-mean-outage", "3s"}
	ckpt := filepath.Join(t.TempDir(), "soak.ckpt")
	serve := func(extra ...[]string) string {
		t.Helper()
		args := append([]string(nil), soak...)
		for _, e := range extra {
			args = append(args, e...)
		}
		return serveFingerprint(t, args)
	}

	unbroken := serve(flaps, []string{"-duration", "1m"})
	serve(flaps, []string{"-duration", "30s", "-checkpoint-at", "30s", "-checkpoint-out", ckpt})
	split := serve([]string{"-duration", "1m", "-restore", ckpt})
	if split != unbroken {
		t.Fatalf("split soak fingerprint differs from the unbroken one:\n--- unbroken ---\n%s--- split ---\n%s", unbroken, split)
	}
	b, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	checkDigests(t, "soak_digests.txt", fmt.Sprintf("fingerprint %s\nsoak.ckpt %s\n", digest([]byte(unbroken)), digest(b)))
}

// serveFingerprint runs `rackfab serve args` and returns its output from
// the "fingerprint:" line on.
func serveFingerprint(t *testing.T, args []string) string {
	t.Helper()
	b, err := serveOutput(t, args)
	if err != nil {
		t.Fatal(err)
	}
	i := strings.Index(b, "fingerprint:")
	if i < 0 {
		t.Fatalf("serve %v printed no fingerprint:\n%s", args, b)
	}
	return b[i:]
}

// serveOutput runs `rackfab serve args` and returns what it printed and
// its error.
func serveOutput(t *testing.T, args []string) (string, error) {
	t.Helper()
	out, err := os.CreateTemp(t.TempDir(), "serve")
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	stdout := os.Stdout
	os.Stdout = out
	runErr := runServe(args, "")
	os.Stdout = stdout
	b, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(b), runErr
}

// TestServeRejectsBadCheckpointFlags: flag combinations that cannot
// checkpoint as asked fail before the first tick. All but the restored-
// clock case fail before the cluster is even built, so no "service:" line
// prints; none writes a checkpoint.
func TestServeRejectsBadCheckpointFlags(t *testing.T) {
	dir := t.TempDir()
	base := []string{"-width", "4", "-height", "4", "-tick", "250ms", "-rate", "20", "-sizes", "fixed:100000", "-duration", "2s"}
	saved := filepath.Join(dir, "saved.ckpt")
	serveFingerprint(t, append(append([]string(nil), base...), "-checkpoint-at", "1s", "-checkpoint-out", saved))
	out := filepath.Join(dir, "out.ckpt")
	for _, tc := range []struct {
		name   string
		args   []string
		served bool // the cluster is built before the flags can be judged
	}{
		{"-checkpoint-at without -checkpoint-out", []string{"-checkpoint-at", "1s"}, false},
		{"-checkpoint-out without -checkpoint-at", []string{"-checkpoint-out", out}, false},
		{"flap flags with -restore", []string{"-restore", saved, "-flaps", "2"}, false},
		{"-checkpoint-at at the restored clock", []string{"-restore", saved, "-checkpoint-at", "1s", "-checkpoint-out", out}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			printed, err := serveOutput(t, append(append([]string(nil), base...), tc.args...))
			if err == nil {
				t.Fatal("serve accepted the flags")
			}
			if got := strings.Contains(printed, "service:"); got != tc.served {
				t.Errorf("printed a service line = %v, want %v:\n%s", got, tc.served, printed)
			}
			if _, err := os.Stat(out); !os.IsNotExist(err) {
				t.Errorf("a checkpoint was written (stat: %v)", err)
			}
		})
	}
}
