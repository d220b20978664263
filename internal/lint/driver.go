package lint

import (
	"fmt"
	"go/token"
	"sort"
	"strings"
)

// Analyzers returns the full determinism suite in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{MapRange, WallClock, GlobalRand, StrayGoroutine}
}

// MapRangeExempt lists the host-side tools that MapRange skips: they
// summarize measurements and feed no simulated result. Every other package
// in the module is on the byte-deterministic replay path, so a new package
// is checked by default. The other three rules apply to every package. The
// list is import paths relative to the module root.
var MapRangeExempt = []string{
	"cmd/benchgate",
	"perfbench",
}

// inDetScope reports whether the import path (under module modpath) is on
// the deterministic replay path.
func inDetScope(modpath, pkgPath string) bool {
	rel := strings.TrimPrefix(strings.TrimPrefix(pkgPath, modpath), "/")
	for _, p := range MapRangeExempt {
		if rel == p {
			return false
		}
	}
	return true
}

// Finding is one aggregated diagnostic.
type Finding struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders a finding the way vet does: path:line:col: message.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
}

// RunAnalyzer runs one analyzer over one package and returns its
// diagnostics as findings.
func RunAnalyzer(l *Loader, a *Analyzer, pkg *Package) ([]Finding, error) {
	var out []Finding
	pass := &Pass{
		Analyzer: a,
		Fset:     l.Fset,
		Files:    pkg.Files,
		Pkg:      pkg.Types,
		Info:     pkg.Info,
	}
	pass.Report = func(d Diagnostic) {
		out = append(out, Finding{Pos: l.Fset.Position(d.Pos), Analyzer: a.Name, Message: d.Message})
	}
	if err := a.Run(pass); err != nil {
		return nil, fmt.Errorf("lint: %s over %s: %w", a.Name, pkg.Path, err)
	}
	return out, nil
}

// Check loads every package under the module rooted at root and runs the
// whole suite with its package scoping, returning the findings sorted by
// position. dirs, when non-empty, restricts the checked packages to those
// whose directory matches one of the (absolute) directories.
func Check(root string, dirs []string) ([]Finding, error) {
	l, err := NewLoader(root)
	if err != nil {
		return nil, err
	}
	pkgs, err := l.LoadAll()
	if err != nil {
		return nil, err
	}
	var findings []Finding
	for _, pkg := range pkgs {
		if len(dirs) > 0 && !dirListed(pkg.Dir, dirs) {
			continue
		}
		for _, a := range Analyzers() {
			if a == MapRange && !inDetScope(l.module, pkg.Path) {
				continue
			}
			fs, err := RunAnalyzer(l, a, pkg)
			if err != nil {
				return nil, err
			}
			findings = append(findings, fs...)
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return findings, nil
}

// dirListed reports whether dir is one of the listed directories.
func dirListed(dir string, dirs []string) bool {
	for _, d := range dirs {
		if dir == d {
			return true
		}
	}
	return false
}
