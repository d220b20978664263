package lint

import (
	"flag"
	"fmt"
	"go/types"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/deadcode.golden from the current scan")

// TestNoNewDeadCode lists every package-level func, type, const and var,
// every method of a package-level type and every field of a package-level
// struct type that no non-test file uses: no package of the module (cmd/,
// examples/ and perfbench/ included) names it in Info.Uses or
// Info.Selections. The list must equal testdata/deadcode.golden, so a
// change that leaves code reachable only from tests shows it in a diff.
// Methods reached only through an interface, and methods of generic types
// (their uses name the instantiated method), are listed too. -update
// rewrites the golden.
func TestNoNewDeadCode(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module plus std imports from source")
	}
	pkgs, err := testLoader(t).LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	used := make(map[types.Object]bool)
	for _, pkg := range pkgs {
		for _, obj := range pkg.Info.Uses {
			used[obj] = true
		}
		for _, sel := range pkg.Info.Selections {
			used[sel.Obj()] = true
		}
	}
	var dead []string
	unused := func(pkg *Package, kind, name string, obj types.Object) {
		if !used[obj] {
			dead = append(dead, fmt.Sprintf("%s %s %s", pkg.Path, kind, name))
		}
	}
	for _, pkg := range pkgs {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			switch obj := obj.(type) {
			case *types.Func:
				if name != "main" && name != "init" {
					unused(pkg, "func", name, obj)
				}
			case *types.Const:
				unused(pkg, "const", name, obj)
			case *types.Var:
				unused(pkg, "var", name, obj)
			case *types.TypeName:
				unused(pkg, "type", name, obj)
				named, ok := obj.Type().(*types.Named)
				if !ok || obj.IsAlias() {
					continue
				}
				for i := 0; i < named.NumMethods(); i++ {
					m := named.Method(i)
					unused(pkg, "method", name+"."+m.Name(), m)
				}
				if st, ok := named.Underlying().(*types.Struct); ok {
					for i := 0; i < st.NumFields(); i++ {
						if f := st.Field(i); f.Name() != "_" {
							unused(pkg, "field", name+"."+f.Name(), f)
						}
					}
				}
			}
		}
	}
	got := strings.Join(dead, "\n") + "\n"
	golden := filepath.Join("testdata", "deadcode.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	for _, line := range dead {
		if !slices.Contains(wantLines, line) {
			t.Errorf("used by no non-test file: %s", line)
		}
	}
	for _, line := range wantLines {
		if !slices.Contains(dead, line) {
			t.Errorf("now used, or gone: %s", line)
		}
	}
	t.Log("delete what no non-test file uses, or rerun with -update and say why in the change")
}
