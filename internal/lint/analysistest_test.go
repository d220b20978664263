package lint

// A miniature analysistest: each analyzer runs over a golden package in
// testdata/src/<name>/ whose sources mark expected diagnostics with
//
//	// want `regexp`
//
// trailing on the offending line. The harness fails on any diagnostic
// without a matching want (an unexpected finding) and on any want without
// a matching diagnostic (a missed finding) — so every fixture is a
// failing-then-passing pair: flagged sites carry wants, conformant or
// //det:-annotated sites carry none and must stay silent.

import (
	"path/filepath"
	"regexp"
	"sync"
	"testing"
)

// wantRE matches in both line and block comments: fixtures that test the
// annotation parser itself must carry their want in a block comment
// preceding the //det: comment, so the expectation is not swallowed as
// the annotation's reason text.
var wantRE = regexp.MustCompile("want `([^`]*)`")

var (
	loaderOnce sync.Once
	sharedLdr  *Loader
	loaderErr  error
)

// testLoader returns one loader shared across the package's tests so the
// std-library source importing is paid once.
func testLoader(t *testing.T) *Loader {
	t.Helper()
	loaderOnce.Do(func() {
		root, err := filepath.Abs("../..")
		if err != nil {
			loaderErr = err
			return
		}
		sharedLdr, loaderErr = NewLoader(root)
	})
	if loaderErr != nil {
		t.Fatal(loaderErr)
	}
	return sharedLdr
}

// runAnalysisTest loads testdata/src/<name> and checks the analyzer's
// diagnostics against the fixture's want comments.
func runAnalysisTest(t *testing.T, a *Analyzer, name string) {
	t.Helper()
	l := testLoader(t)
	dir, err := filepath.Abs(filepath.Join("testdata", "src", name))
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := l.LoadDir(dir, "detlinttest/"+name)
	if err != nil {
		t.Fatal(err)
	}

	type want struct {
		re      *regexp.Regexp
		matched bool
	}
	wants := make(map[string]map[int][]*want) // file → line → expectations
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := l.Fset.Position(c.Pos())
				byLine := wants[pos.Filename]
				if byLine == nil {
					byLine = make(map[int][]*want)
					wants[pos.Filename] = byLine
				}
				byLine[pos.Line] = append(byLine[pos.Line], &want{re: regexp.MustCompile(m[1])})
			}
		}
	}

	findings, err := RunAnalyzer(l, a, pkg)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		var hit *want
		for _, w := range wants[f.Pos.Filename][f.Pos.Line] {
			if !w.matched && w.re.MatchString(f.Message) {
				hit = w
				break
			}
		}
		if hit == nil {
			t.Errorf("unexpected diagnostic: %s", f)
			continue
		}
		hit.matched = true
	}
	for file, byLine := range wants {
		for line, ws := range byLine {
			for _, w := range ws {
				if !w.matched {
					t.Errorf("%s:%d: expected diagnostic matching %q, got none", file, line, w.re)
				}
			}
		}
	}
}

func TestMapRangeAnalyzer(t *testing.T)       { runAnalysisTest(t, MapRange, "maprange") }
func TestWallClockAnalyzer(t *testing.T)      { runAnalysisTest(t, WallClock, "wallclock") }
func TestGlobalRandAnalyzer(t *testing.T)     { runAnalysisTest(t, GlobalRand, "globalrand") }
func TestStrayGoroutineAnalyzer(t *testing.T) { runAnalysisTest(t, StrayGoroutine, "goroutine") }
