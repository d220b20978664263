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
// 30 s, restore, run to 1 min. The two fingerprints must be equal, and
// the SHA-256 of the fingerprint and of the checkpoint file must equal
// testdata/soak_digests.txt. The fingerprint is the serve output from its
// "fingerprint:" line on, the bytes `sed -n '/fingerprint:/,$p'` keeps.
//
// Run with -update to rewrite testdata/soak_digests.txt; a change that
// does so says which digest moved, and why, in CHANGES.md.
func TestSoakDigests(t *testing.T) {
	soak := []string{"-width", "8", "-height", "8", "-tick", "250ms", "-rate", "20",
		"-sizes", "fixed:1000000", "-flaps", "4", "-flap-start", "5s", "-flap-gap", "10s", "-mean-outage", "3s"}
	ckpt := filepath.Join(t.TempDir(), "soak.ckpt")
	serve := func(extra ...string) string {
		t.Helper()
		return serveFingerprint(t, append(append([]string(nil), soak...), extra...))
	}

	unbroken := serve("-duration", "1m")
	serve("-duration", "30s", "-checkpoint-at", "30s", "-checkpoint-out", ckpt)
	split := serve("-duration", "1m", "-restore", ckpt)
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
	out, err := os.CreateTemp(t.TempDir(), "serve")
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	stdout := os.Stdout
	os.Stdout = out
	err = runServe(args, "")
	os.Stdout = stdout
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	i := strings.Index(string(b), "fingerprint:")
	if i < 0 {
		t.Fatalf("serve %v printed no fingerprint:\n%s", args, b)
	}
	return string(b[i:])
}
