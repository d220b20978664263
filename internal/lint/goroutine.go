package lint

import (
	"go/ast"
	"path/filepath"
	"strings"
)

// approvedGoroutineFiles are the repo's sanctioned concurrency surfaces:
// files whose goroutines are structured (bounded pool, deterministic
// merge) and whose output is proven byte-identical at any worker count.
// Everything else must stay sequential — an ad-hoc goroutine is how
// nondeterministic interleaving sneaks into a replayable simulator.
var approvedGoroutineFiles = []string{
	"internal/experiment/sweep.go", // the bounded trial worker pool
	// route.Build's column workers: each writes only its own contiguous
	// range of destination columns, every column is a function of the
	// graph and costs alone, and all join before Build returns.
	"internal/route/build.go",
}

// StrayGoroutine flags `go` statements outside the approved concurrency
// surfaces. New concurrency belongs behind the sweep's worker pool (or a
// future sharded-solver surface added to the allowlist in the same PR
// that proves its determinism); a one-off exception carries:
//
//	//det:goroutine <why this interleaving cannot reach output>
var StrayGoroutine = &Analyzer{
	Name: "strayGoroutine",
	Doc:  "flags go statements outside approved concurrency surfaces",
	Run: func(pass *Pass) error {
		for _, f := range pass.Files {
			file := filepath.ToSlash(pass.Fset.Position(f.Pos()).Filename)
			approved := false
			for _, ok := range approvedGoroutineFiles {
				if strings.HasSuffix(file, ok) {
					approved = true
					break
				}
			}
			if approved {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				g, ok := n.(*ast.GoStmt)
				if !ok {
					return true
				}
				if pass.annotated(g.Pos(), "goroutine") {
					return true
				}
				pass.Reportf(g.Pos(), "go statement outside approved concurrency surfaces (%s); route parallelism through the sweep worker pool or annotate //det:goroutine with a reason", strings.Join(approvedGoroutineFiles, ", "))
				return true
			})
		}
		return nil
	},
}
