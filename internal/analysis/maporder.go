package analysis

import (
	"go/ast"
	"go/printer"
	"go/types"
	"strings"
)

// MapOrder flags `range` over a map in determinism-critical packages. Go
// randomizes map iteration order per run, so any map range on a path that
// feeds results, wire traffic or log output is a reproducibility bug — the
// class that produced PR 3's random-order flushAny flush.
//
// Two idioms are recognized as safe and exempted:
//
//   - key collection: a body that only appends the key (and/or value) to a
//     slice, which the surrounding code then sorts — the canonical
//     deterministic map walk;
//   - map clearing: a body that is exactly `delete(m, k)` on the ranged
//     map, which the spec defines to work and is order-independent.
//
// Anything else needs the keys sorted first or an //aggrevet:ordered
// justification explaining why iteration order cannot be observed.
var MapOrder = &Analyzer{
	Name:      "maporder",
	Directive: "ordered",
	Run:       runMapOrder,
}

func runMapOrder(p *Pass) {
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			t := p.TypeOf(rs.X)
			if t == nil {
				return true
			}
			if _, isMap := t.Underlying().(*types.Map); !isMap {
				return true
			}
			if isKeyCollectionLoop(rs) || isMapClearLoop(rs) {
				return true
			}
			p.Reportf(rs.For,
				"range over map %s iterates in nondeterministic order; collect the keys into a slice and sort it first, or justify with %sordered",
				exprString(p.Pkg, rs.X), DirectivePrefix)
			return true
		})
	}
}

// isKeyCollectionLoop reports whether the range body does nothing but append
// loop variables to one slice: `for k := range m { keys = append(keys, k) }`
// (or k, v appended together). The order of the resulting slice is still
// random, but the only reason to collect keys like this is to sort them —
// and if the caller forgets, the consuming range is over a slice the
// analyzer cannot prove sorted, which is exactly what code review is for;
// the invariant here is that no map-ordered effect happens inside the loop.
func isKeyCollectionLoop(rs *ast.RangeStmt) bool {
	if len(rs.Body.List) != 1 {
		return false
	}
	assign, ok := rs.Body.List[0].(*ast.AssignStmt)
	if !ok || len(assign.Lhs) != 1 || len(assign.Rhs) != 1 {
		return false
	}
	call, ok := assign.Rhs[0].(*ast.CallExpr)
	if !ok || len(call.Args) < 2 {
		return false
	}
	fn, ok := call.Fun.(*ast.Ident)
	if !ok || fn.Name != "append" {
		return false
	}
	// append's first argument must be the assignment target, and every
	// appended element must be one of the loop variables.
	if !sameIdentPath(call.Args[0], assign.Lhs[0]) {
		return false
	}
	for _, arg := range call.Args[1:] {
		if !sameIdentPath(arg, rs.Key) && !sameIdentPath(arg, rs.Value) {
			return false
		}
	}
	return true
}

// isMapClearLoop reports whether the body is exactly `delete(m, k)` on the
// ranged map with the ranged key — the order-independent clear idiom.
func isMapClearLoop(rs *ast.RangeStmt) bool {
	if len(rs.Body.List) != 1 {
		return false
	}
	es, ok := rs.Body.List[0].(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok || len(call.Args) != 2 {
		return false
	}
	fn, ok := call.Fun.(*ast.Ident)
	if !ok || fn.Name != "delete" {
		return false
	}
	return sameIdentPath(call.Args[0], rs.X) && sameIdentPath(call.Args[1], rs.Key)
}

// sameIdentPath reports whether a and b are the same identifier or the same
// dotted selector path, textually.
func sameIdentPath(a, b ast.Expr) bool {
	sa, oka := identPath(a)
	sb, okb := identPath(b)
	return oka && okb && sa == sb
}

func identPath(e ast.Expr) (string, bool) {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name, true
	case *ast.SelectorExpr:
		base, ok := identPath(x.X)
		if !ok {
			return "", false
		}
		return base + "." + x.Sel.Name, true
	}
	return "", false
}

// exprString renders an expression compactly for diagnostics.
func exprString(pkg *Package, e ast.Expr) string {
	var b strings.Builder
	if err := printer.Fprint(&b, pkg.Fset, e); err != nil {
		return "<expr>"
	}
	s := b.String()
	if len(s) > 40 {
		s = s[:37] + "..."
	}
	return s
}
