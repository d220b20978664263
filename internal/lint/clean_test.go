package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"path/filepath"
	"sort"
	"testing"
)

// TestDetlintClean runs the whole determinism suite over every package in
// the module, in-process — the same gate `go run ./cmd/detlint ./...`
// applies in CI, for plain `go test` users. Any unannotated finding is a
// failure; the fix is to make the site deterministic or to annotate it
// with a written //det:<key> justification.
func TestDetlintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module plus std imports from source; the dedicated CI detlint step covers short/race runs")
	}
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	findings, err := Check(root, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}
	if len(findings) > 0 {
		t.Logf("%d unannotated determinism finding(s); see internal/lint for the rules and the //det: annotation format", len(findings))
	}
}

// TestPublicSettingsHaveCallers keeps the façade's settings honest: every
// field of Config, ControlConfig, ServeConfig, ArrivalSpec and FlapConfig
// must be set, by a composite-literal key or an assignment, in at least one
// non-test file of the module (cmd/, examples/, internal/, perfbench/ or
// the root package). A setting that nothing sets belongs in a named
// constant where it is read.
func TestPublicSettingsHaveCallers(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module plus std imports from source")
	}
	l := testLoader(t)
	pkgs, err := l.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	var facade *Package
	for _, pkg := range pkgs {
		if pkg.Path == l.Module() {
			facade = pkg
		}
	}
	if facade == nil {
		t.Fatalf("no root package %q", l.Module())
	}
	settings := make(map[*types.Var]string)
	for _, name := range []string{"Config", "ControlConfig", "ServeConfig", "ArrivalSpec", "FlapConfig"} {
		obj := facade.Types.Scope().Lookup(name)
		if obj == nil {
			t.Fatalf("the root package has no type %s", name)
		}
		st := obj.Type().Underlying().(*types.Struct)
		for i := 0; i < st.NumFields(); i++ {
			settings[st.Field(i)] = name + "." + st.Field(i).Name()
		}
	}

	set := make(map[*types.Var]bool)
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					typ := pkg.Info.TypeOf(n)
					if p, ok := typ.(*types.Pointer); ok {
						typ = p.Elem()
					}
					st, ok := typ.Underlying().(*types.Struct)
					if !ok {
						return true
					}
					for i, el := range n.Elts {
						kv, keyed := el.(*ast.KeyValueExpr)
						if !keyed {
							set[st.Field(i)] = true
							continue
						}
						if id, ok := kv.Key.(*ast.Ident); ok {
							if v, ok := pkg.Info.Uses[id].(*types.Var); ok {
								set[v] = true
							}
						}
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						if sel, ok := lhs.(*ast.SelectorExpr); ok && pkg.Info.Selections[sel] != nil {
							if v, ok := pkg.Info.Selections[sel].Obj().(*types.Var); ok {
								set[v] = true
							}
						}
					}
				}
				return true
			})
		}
	}
	var unset []string
	for v, name := range settings {
		if !set[v] {
			unset = append(unset, name)
		}
	}
	sort.Strings(unset)
	for _, name := range unset {
		t.Errorf("%s is set by no non-test file; make it a named constant where it is read", name)
	}
}

// TestOneAssemblyPath keeps packet assembly in one place: no non-test file
// outside internal/fabric may use fabric.New, sim.NewSized or
// (*ringctl.Controller).Start. The façade, the PoC validation and the
// experiments build through fabric.Assemble, so its queue sizing and CRC
// start reach every packet run. perfbench/ is exempt until the next
// benchmark change.
func TestOneAssemblyPath(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module plus std imports from source")
	}
	l := testLoader(t)
	pkgs, err := l.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	mod := l.Module()
	assembly := map[string]bool{
		mod + "/internal/fabric.New":                       true,
		mod + "/internal/sim.NewSized":                     true,
		"(*" + mod + "/internal/ringctl.Controller).Start": true,
	}
	var calls []string
	for _, pkg := range pkgs {
		if pkg.Path == mod+"/internal/fabric" || pkg.Path == mod+"/perfbench" {
			continue
		}
		for id, obj := range pkg.Info.Uses {
			if fn, ok := obj.(*types.Func); ok && assembly[fn.FullName()] {
				pos := l.Fset.Position(id.Pos())
				rel, err := filepath.Rel(l.Root(), pos.Filename)
				if err != nil {
					t.Fatal(err)
				}
				calls = append(calls, fmt.Sprintf("%s:%d uses %s", rel, pos.Line, fn.FullName()))
			}
		}
	}
	sort.Strings(calls)
	for _, c := range calls {
		t.Errorf("%s; build through fabric.Assemble", c)
	}
}

// TestDetScope pins the maprange scoping: every package is on the
// deterministic replay path unless it is one of the exempt host-side
// tools.
func TestDetScope(t *testing.T) {
	cases := []struct {
		pkg string
		in  bool
	}{
		{"rackfab", true},
		{"rackfab/internal/fluid", true},
		{"rackfab/internal/sim", true},
		{"rackfab/internal/fabric", true},
		{"rackfab/internal/faults", true},
		{"rackfab/internal/route", true},
		{"rackfab/internal/experiment", true},
		{"rackfab/internal/ringctl", true},
		{"rackfab/internal/telemetry", true},
		{"rackfab/internal/fec", true},
		{"rackfab/cmd/detlint", true},
		{"rackfab/cmd/rackfab", true},
		{"rackfab/cmd/benchgate", false},
		{"rackfab/perfbench", false},
	}
	for _, c := range cases {
		if got := inDetScope("rackfab", c.pkg); got != c.in {
			t.Errorf("inDetScope(%q) = %v, want %v", c.pkg, got, c.in)
		}
	}
}

// TestDetPackagesExist keeps the exempt list honest: every listed package
// must actually load from the module, so a stale entry cannot linger after
// a rename.
func TestDetPackagesExist(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the listed packages from source")
	}
	l := testLoader(t)
	for _, rel := range MapRangeExempt {
		path := l.Module() + "/" + rel
		dir := filepath.Join(l.Root(), filepath.FromSlash(rel))
		if _, err := l.LoadDir(dir, path); err != nil {
			t.Errorf("MapRangeExempt entry %q does not load: %v", rel, err)
		}
	}
}
