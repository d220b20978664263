package lint

import (
	"go/ast"
	"go/types"
)

// MapRange flags `for … range` over a map-typed value. Go randomizes map
// iteration order per loop, so any map range whose body can reach output
// — directly, through float accumulation, or by ordering appends — is a
// byte-determinism hazard. The deterministic fix is to collect keys into
// a slice and sort before iterating. Loops that provably cannot leak
// order (pure filter-deletes, commutative integer counting, collect-then-
// sort) carry a written waiver:
//
//	//det:ordered <why the order cannot reach output>
//
// The driver applies this analyzer to every package except the host-side
// tools in MapRangeExempt.
var MapRange = &Analyzer{
	Name: "maprange",
	Doc:  "flags range over a map in deterministic packages unless //det:ordered justifies it",
	Run: func(pass *Pass) error {
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				rs, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				t := pass.Info.TypeOf(rs.X)
				if t == nil {
					return true
				}
				if _, isMap := t.Underlying().(*types.Map); !isMap {
					return true
				}
				if pass.annotated(rs.Pos(), "ordered") {
					return true
				}
				pass.Reportf(rs.Pos(), "range over map %s iterates in randomized order; sort keys into a slice or annotate //det:ordered with a reason", types.TypeString(t, types.RelativeTo(pass.Pkg)))
				return true
			})
		}
		return nil
	},
}
