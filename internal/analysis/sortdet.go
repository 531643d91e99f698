package analysis

import (
	"go/ast"
	"go/types"
)

// unstableSorts maps each unstable comparator sort of the standard library
// to its stable twin.
var unstableSorts = map[string]string{
	"sort.Slice":      "sort.SliceStable",
	"sort.Sort":       "sort.Stable",
	"slices.SortFunc": "slices.SortStableFunc",
}

// SortDet flags sort.Slice, sort.Sort and slices.SortFunc on
// determinism-critical paths. They are unstable sorts: elements the
// comparator considers equal land in an order that depends on the input
// permutation — which, after a map range or a network race, is not
// reproducible. The fix is the stable twin over a deterministic input order,
// or a comparator that breaks every tie with a total key (justified with
// //aggrevet:stable).
var SortDet = &Analyzer{
	Name:      "sortdet",
	Directive: "stable",
	Doc: "flags unstable sorts on result-bearing paths: they turn " +
		"comparator ties into input-order dependence; use the stable twin " +
		"or a total comparator key",
	Run: runSortDet,
}

func runSortDet(p *Pass) {
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := p.ObjectOf(sel.Sel).(*types.Func)
			if !ok {
				return true
			}
			if stable, unstable := unstableSorts[fn.FullName()]; unstable {
				p.Reportf(call.Pos(),
					"%s is tie-unstable on a result path; use %s, or make the comparator a total order and justify with %sstable",
					fn.FullName(), stable, DirectivePrefix)
			}
			return true
		})
	}
}
