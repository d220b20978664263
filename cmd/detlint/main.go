// detlint is the repo's determinism multichecker: it runs the
// internal/lint analyzer suite (maprange, wallclock, globalrand,
// strayGoroutine) over the module and exits non-zero on any unannotated
// finding.
//
//	go run ./cmd/detlint ./...
//	go run ./cmd/detlint ./internal/fluid ./internal/route
//
// A finding is suppressed only by a per-site //det:<key> <reason>
// annotation (see internal/lint and the README's "Determinism
// discipline" section). CI runs this after vet; TestDetlintClean runs
// the identical check in-process for plain `go test` users.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"rackfab/internal/lint"
)

func main() {
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: detlint [packages]\n\nRuns the determinism analyzer suite. Patterns: ./... (default),\nor package directories like ./internal/fluid.\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	cwd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	root, err := moduleRoot(cwd)
	if err != nil {
		fatal(err)
	}

	dirs, all, err := resolvePatterns(cwd, flag.Args())
	if err != nil {
		fatal(err)
	}
	if all {
		dirs = nil // Check treats empty as "every package"
	}

	findings, err := lint.Check(root, dirs)
	if err != nil {
		fatal(err)
	}
	for _, f := range findings {
		// Report paths relative to the module root: stable across machines
		// and clickable from the repo top level.
		if rel, err := filepath.Rel(root, f.Pos.Filename); err == nil {
			f.Pos.Filename = rel
		}
		fmt.Println(f)
	}
	if n := len(findings); n > 0 {
		fmt.Fprintf(os.Stderr, "detlint: %d finding(s)\n", n)
		os.Exit(1)
	}
}

// moduleRoot walks up from dir to the directory containing go.mod.
func moduleRoot(dir string) (string, error) {
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("detlint: no go.mod above %s", dir)
		}
		dir = parent
	}
}

// resolvePatterns turns command-line package patterns into absolute
// directories, or reports all=true for a bare "./..." (or no arguments).
func resolvePatterns(cwd string, args []string) (dirs []string, all bool, err error) {
	if len(args) == 0 {
		return nil, true, nil
	}
	for _, arg := range args {
		if arg == "./..." || arg == "..." {
			return nil, true, nil
		}
		if rest, ok := strings.CutSuffix(arg, "/..."); ok {
			// Recursive pattern under a subdirectory: expand to every
			// package directory beneath it.
			base := filepath.Join(cwd, rest)
			err := filepath.WalkDir(base, func(p string, d os.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if d.IsDir() && !strings.HasPrefix(d.Name(), ".") && d.Name() != "testdata" {
					dirs = append(dirs, p)
				}
				return nil
			})
			if err != nil {
				return nil, false, err
			}
			continue
		}
		dirs = append(dirs, filepath.Join(cwd, arg))
	}
	return dirs, false, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(2)
}
