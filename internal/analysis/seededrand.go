package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// randPackages are the import paths whose use is policed.
var randPackages = map[string]bool{
	"math/rand":    true,
	"math/rand/v2": true,
}

// randSourceCtors are the rand functions that bake a seed into a stream;
// their seed argument must be derived from the run seed.
var randSourceCtors = map[string]bool{
	"NewSource":  true, // math/rand
	"NewPCG":     true, // math/rand/v2
	"NewChaCha8": true, // math/rand/v2
}

// SeededRand enforces that every random stream on a determinism-critical
// path is derived from the run seed. Two shapes are flagged:
//
//   - any use of a math/rand (or rand/v2) package-level function or
//     variable: the global stream is seeded from runtime entropy and shared
//     across goroutines, so its draws are never reproducible;
//   - rand.New / rand.NewSource (and the v2 constructors) whose seed
//     expression does not mention a seed: no call to a *Seed helper (the
//     ps.SamplerSeed family) and no identifier or field named like a seed.
//
// The textual heuristic is deliberate: the contract is that seeds are
// derived from the ps.*Seed helpers or threaded config seeds, and every
// compliant call site names its seed. A magic literal or an unrelated
// variable fails the check and either gets derived properly or justified
// with //aggrevet:seeded.
var SeededRand = &Analyzer{
	Name:      "seededrand",
	Directive: "seeded",
	Run:       runSeededRand,
}

func runSeededRand(p *Pass) {
	// Seed arguments of flagged constructors are handled at the call site;
	// remember the constructor idents so the global-use walk skips them.
	ctorIdents := map[*ast.Ident]bool{}

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
			fn := p.randFunc(sel)
			if fn == nil {
				return true
			}
			if !randSourceCtors[fn.Name()] && fn.Name() != "New" {
				return true
			}
			ctorIdents[sel.Sel] = true
			if fn.Name() == "New" {
				// rand.New(src): when src is itself a policed constructor
				// call it is checked on its own visit; any other source
				// expression must name its seed directly.
				if len(call.Args) == 1 {
					if inner, ok := call.Args[0].(*ast.CallExpr); ok {
						if isel, ok := inner.Fun.(*ast.SelectorExpr); ok {
							if f := p.randFunc(isel); f != nil && randSourceCtors[f.Name()] {
								return true
							}
						}
					}
				}
			}
			for _, arg := range call.Args {
				if !seedDerived(arg) {
					p.Reportf(call.Pos(),
						"rand.%s seed %s is not derived from the run seed; derive it from a ps.*Seed helper (or a named seed value) or justify with %sseeded",
						fn.Name(), exprString(p.Pkg, arg), DirectivePrefix)
					break
				}
			}
			return true
		})
	}

	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || ctorIdents[sel.Sel] {
				return true
			}
			obj := p.ObjectOf(sel.Sel)
			if obj == nil || obj.Pkg() == nil || !randPackages[obj.Pkg().Path()] {
				return true
			}
			switch fn := obj.(type) {
			case *types.Func:
				if fn.Type().(*types.Signature).Recv() != nil {
					return true // method on an explicit *rand.Rand value
				}
			case *types.Var:
				// package-level state feeding the global stream
			default:
				return true // type names (rand.Rand, rand.Source) are fine
			}
			if randSourceCtors[obj.Name()] || obj.Name() == "New" {
				return true // constructors are policed above
			}
			p.Reportf(sel.Pos(),
				"global rand.%s draws from the shared runtime-seeded stream; use a rand.New(rand.NewSource(...)) instance derived from the run seed or justify with %sseeded",
				obj.Name(), DirectivePrefix)
			return true
		})
	}
}

// randFunc resolves sel to a math/rand package-level function, or nil.
func (p *Pass) randFunc(sel *ast.SelectorExpr) *types.Func {
	fn, ok := p.ObjectOf(sel.Sel).(*types.Func)
	if !ok || fn.Pkg() == nil || !randPackages[fn.Pkg().Path()] {
		return nil
	}
	if fn.Type().(*types.Signature).Recv() != nil {
		return nil
	}
	return fn
}

// seedDerived reports whether expr mentions a seed: a call to any function
// whose name ends in "Seed" (the ps helper family), or an identifier /
// field selection whose name contains "seed".
func seedDerived(expr ast.Expr) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			if name, ok := calleeName(x); ok && strings.HasSuffix(name, "Seed") {
				found = true
			}
		case *ast.Ident:
			if strings.Contains(strings.ToLower(x.Name), "seed") {
				found = true
			}
		}
		return !found
	})
	return found
}

func calleeName(call *ast.CallExpr) (string, bool) {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name, true
	case *ast.SelectorExpr:
		return fun.Sel.Name, true
	}
	return "", false
}
