// Package lint is the repo's determinism-lint suite: a set of
// go/analysis-shaped analyzers that enforce, at vet time, the discipline
// the end-to-end fingerprint tests (TestShuffledInputFingerprint,
// TestExperimentsDeterministic) only verify after the fact. Every result
// in this reproduction rests on byte-identical replay — the sweep, the
// warm-start solver, the fault replay — and the bug classes that silently
// break it are exactly the ones a compiler never flags: map-order
// iteration, wall-clock reads, the global RNG and ad-hoc goroutines.
//
// The framework mirrors golang.org/x/tools/go/analysis (Analyzer, Pass,
// Diagnostic) but is built on the standard library alone so the module
// stays dependency-free: packages are parsed with go/parser and
// type-checked with go/types, with std-library imports resolved by the
// source importer (see load.go).
//
// A site an analyzer would flag can be suppressed with a written
// justification:
//
//	//det:<key> <reason>
//
// either trailing on the offending line or on the line immediately above
// it. The key names the rule (`ordered`, `wallclock`, `rand`,
// `goroutine`); the reason is mandatory — an annotation without one is
// itself reported. Annotations are deliberately per-site: there is no file- or
// package-level opt-out.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer is one determinism rule. The shape deliberately matches
// golang.org/x/tools/go/analysis.Analyzer so the suite can migrate onto
// the real multichecker wholesale if the dependency ever lands.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	Report   func(Diagnostic)

	ann annotationIndex
}

// Diagnostic is one finding at a position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// annotation is one parsed //det: comment.
type annotation struct {
	key    string
	reason string
	pos    token.Pos
}

// annotationIndex maps file name → line → annotation on that line.
type annotationIndex map[string]map[int]annotation

// AnnotationPrefix is the comment marker the suite recognizes.
const AnnotationPrefix = "//det:"

// buildAnnotations indexes every //det: comment in the pass's files by
// the line it sits on.
func (p *Pass) buildAnnotations() {
	p.ann = make(annotationIndex)
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, AnnotationPrefix) {
					continue
				}
				body := strings.TrimPrefix(c.Text, AnnotationPrefix)
				key, reason, _ := strings.Cut(body, " ")
				pos := p.Fset.Position(c.Pos())
				byLine := p.ann[pos.Filename]
				if byLine == nil {
					byLine = make(map[int]annotation)
					p.ann[pos.Filename] = byLine
				}
				byLine[pos.Line] = annotation{
					key:    key,
					reason: strings.TrimSpace(reason),
					pos:    c.Pos(),
				}
			}
		}
	}
}

// annotated reports whether the node at pos carries a //det:<key>
// annotation — trailing on its own line or alone on the line above — and
// enforces that the annotation states a reason. A matching annotation
// with an empty reason is reported as a finding in its own right, and
// does not suppress.
func (p *Pass) annotated(pos token.Pos, key string) bool {
	if p.ann == nil {
		p.buildAnnotations()
	}
	where := p.Fset.Position(pos)
	byLine := p.ann[where.Filename]
	if byLine == nil {
		return false
	}
	for _, line := range [2]int{where.Line, where.Line - 1} {
		a, ok := byLine[line]
		if !ok || a.key != key {
			continue
		}
		if a.reason == "" {
			p.Reportf(a.pos, "//det:%s annotation needs a written justification", key)
			return true // suppress the underlying finding; the empty annotation is the finding
		}
		return true
	}
	return false
}

// isPkgFunc reports whether obj is the package-level function pkgPath.name.
func isPkgFunc(obj types.Object, pkgPath, name string) bool {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	if fn.Type().(*types.Signature).Recv() != nil {
		return false
	}
	return fn.Pkg().Path() == pkgPath && fn.Name() == name
}
