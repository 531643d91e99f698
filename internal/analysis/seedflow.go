package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// SeedFlow is the interprocedural seed-lineage taint analyzer. The
// reproducibility contract says every random stream on a campaign path is a
// pure function of the run seed; the per-package SeededRand pass checks the
// textual shape of each rand construction, but it cannot see a literal that
// flows into a seed slot two calls away. SeedFlow can: it computes, module
// wide, the set of function parameters that must be seed-derived (the
// "demand set") and then checks every call site's argument against an
// intra-procedural taint walk.
//
// Demand seeding:
//
//   - every parameter whose name mentions "seed" (the ps.*Seed helper
//     family, schedule constructors, sampler factories) demands a
//     seed-derived argument;
//   - the seed arguments of math/rand's NewSource / NewPCG / NewChaCha8
//     demand one;
//   - demand propagates backwards through calls: if parameter p of f flows
//     into a demanded slot inside f, then p itself becomes demanded, and
//     f's callers are checked — through as many hops as it takes.
//
// An argument satisfies a demanded slot when it traces back to the run
// seed: it mentions a seed-named identifier or field, calls a *Seed helper,
// reads a local assigned from such a value (transitively), or is itself a
// demanded parameter of the enclosing function (the obligation then sits
// with that function's callers). An untainted literal, a wall-clock-derived
// expression (time.Now().UnixNano() is the classic irreproducible seed) or
// any other untraceable value is a finding, justified — when intentional —
// with //aggrevet:lineage.
var SeedFlow = &Analyzer{
	Name:      "seedflow",
	Directive: "lineage",
	RunModule: runSeedFlow,
}

// seedDemand is the module-wide demand set: for each indexed function, which
// parameter indices must receive seed-derived arguments.
type seedDemand map[string][]bool

// runSeedFlow computes the demand fixpoint, then reports every call argument
// that reaches a demanded slot without seed lineage.
func runSeedFlow(mp *ModulePass) {
	demand := seedDemand{}
	funcs := mp.Module.Funcs()

	// Round 0: name-declared demand. A parameter named like a seed is a
	// declaration of intent no matter where the function lives.
	for _, fn := range funcs {
		params := funcParams(fn.Decl)
		var mask []bool
		for i, p := range params {
			if nameMentionsSeed(p.name) {
				if mask == nil {
					mask = make([]bool, len(params))
				}
				mask[i] = true
			}
		}
		if mask != nil {
			demand[fn.Key] = mask
		}
	}

	// Fixpoint: propagate demand backwards through call arguments that are
	// plain parameter references.
	for changed := true; changed; {
		changed = false
		for _, fn := range funcs {
			fa := newFlowAnalysis(fn, demand)
			for _, site := range fa.demandedSites(mp.Module) {
				if fa.tainted(site.arg) {
					continue
				}
				for _, pi := range fa.paramsMentioned(site.arg) {
					mask := demand[fn.Key]
					if mask == nil {
						mask = make([]bool, len(funcParams(fn.Decl)))
						demand[fn.Key] = mask
					}
					if !mask[pi] {
						mask[pi] = true
						changed = true
					}
				}
			}
		}
	}

	// Report pass: at the fixpoint, any demanded argument that is neither
	// tainted nor covered by a (now-demanded) enclosing parameter has no
	// seed lineage.
	for _, fn := range funcs {
		fa := newFlowAnalysis(fn, demand)
		for _, site := range fa.demandedSites(mp.Module) {
			if fa.tainted(site.arg) {
				continue
			}
			if len(fa.paramsMentioned(site.arg)) > 0 {
				continue // obligation moved to the callers of fn
			}
			mp.Reportf(fn.Pkg.Fset, site.arg.Pos(),
				"%s argument %d of %s %s; derive it from the run seed (a ps.*Seed helper or a seed-carrying config field) or justify with %slineage",
				describeUntainted(fn.Pkg, site.arg), site.index, site.callee, untaintedVerb(site.arg), DirectivePrefix)
		}
	}
}

// param is one declared parameter name.
type funcParam struct{ name string }

// funcParams flattens a declaration's parameter list (grouped names expand
// to one entry each; unnamed parameters keep an empty name).
func funcParams(fd *ast.FuncDecl) []funcParam {
	var out []funcParam
	if fd.Type.Params == nil {
		return out
	}
	for _, field := range fd.Type.Params.List {
		if len(field.Names) == 0 {
			out = append(out, funcParam{})
			continue
		}
		for _, n := range field.Names {
			out = append(out, funcParam{name: n.Name})
		}
	}
	return out
}

func nameMentionsSeed(name string) bool {
	return strings.Contains(strings.ToLower(name), "seed")
}

// demandSite is one call argument occupying a demanded slot.
type demandSite struct {
	arg    ast.Expr
	index  int
	callee string
}

// flowAnalysis is the intra-procedural taint state for one function body.
type flowAnalysis struct {
	fn     *ModuleFunc
	demand seedDemand
	// taintedLocals are the names of local variables assigned (directly or
	// transitively) from seed-derived expressions.
	taintedLocals map[string]bool
	// demandedParams are the enclosing function's own demanded parameter
	// names — assumed tainted inside the body (callers carry the proof).
	demandedParams map[string]bool
	sites          []demandSite
	sitesBuilt     bool
}

func newFlowAnalysis(fn *ModuleFunc, demand seedDemand) *flowAnalysis {
	fa := &flowAnalysis{
		fn:             fn,
		demand:         demand,
		taintedLocals:  map[string]bool{},
		demandedParams: map[string]bool{},
	}
	params := funcParams(fn.Decl)
	if mask := demand[fn.Key]; mask != nil {
		for i, on := range mask {
			if on && i < len(params) && params[i].name != "" {
				fa.demandedParams[params[i].name] = true
			}
		}
	}
	if fn.Decl.Body != nil {
		fa.propagateLocals()
	}
	return fa
}

// propagateLocals runs the local-assignment taint fixpoint: a variable
// assigned from a tainted expression is tainted, and taint flows through
// chains of locals regardless of statement order (loops re-enter bodies).
func (fa *flowAnalysis) propagateLocals() {
	for changed := true; changed; {
		changed = false
		ast.Inspect(fa.fn.Decl.Body, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.AssignStmt:
				for i, lhs := range x.Lhs {
					id, ok := lhs.(*ast.Ident)
					if !ok || id.Name == "_" || fa.taintedLocals[id.Name] {
						continue
					}
					var rhs ast.Expr
					if len(x.Rhs) == len(x.Lhs) {
						rhs = x.Rhs[i]
					} else if len(x.Rhs) == 1 {
						rhs = x.Rhs[0]
					}
					if rhs != nil && fa.tainted(rhs) {
						fa.taintedLocals[id.Name] = true
						changed = true
					}
				}
			case *ast.ValueSpec:
				for i, name := range x.Names {
					if name.Name == "_" || fa.taintedLocals[name.Name] {
						continue
					}
					var rhs ast.Expr
					if len(x.Values) == len(x.Names) {
						rhs = x.Values[i]
					} else if len(x.Values) == 1 {
						rhs = x.Values[0]
					}
					if rhs != nil && fa.tainted(rhs) {
						fa.taintedLocals[name.Name] = true
						changed = true
					}
				}
			}
			return true
		})
	}
}

// tainted reports whether expr carries seed lineage: a seed-named
// identifier or field anywhere inside it, a *Seed helper call, a tainted
// local, or a demanded parameter of the enclosing function.
func (fa *flowAnalysis) tainted(expr ast.Expr) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if found {
			return false
		}
		switch x := n.(type) {
		case *ast.Ident:
			if nameMentionsSeed(x.Name) || fa.taintedLocals[x.Name] || fa.demandedParams[x.Name] {
				found = true
			}
		case *ast.SelectorExpr:
			if nameMentionsSeed(x.Sel.Name) {
				found = true
			}
		case *ast.CallExpr:
			if name, ok := calleeName(x); ok && strings.HasSuffix(name, "Seed") {
				found = true
			}
		}
		return !found
	})
	return found
}

// paramsMentioned returns the indices of the enclosing function's parameters
// referenced anywhere inside expr, sorted.
func (fa *flowAnalysis) paramsMentioned(expr ast.Expr) []int {
	params := funcParams(fa.fn.Decl)
	byName := map[string]int{}
	for i, p := range params {
		if p.name != "" && p.name != "_" {
			byName[p.name] = i
		}
	}
	seen := map[int]bool{}
	ast.Inspect(expr, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if i, isParam := byName[id.Name]; isParam && !fa.shadowed(id) {
				seen[i] = true
			}
		}
		return true
	})
	out := make([]int, 0, len(seen))
	for i := range seen {
		out = append(out, i)
	}
	sort.Ints(out)
	return out
}

// shadowed reports whether id resolves to something other than the
// enclosing function's parameter object (a shadowing local, a field).
func (fa *flowAnalysis) shadowed(id *ast.Ident) bool {
	obj, ok := fa.fn.Pkg.Info.Uses[id]
	if !ok {
		return false
	}
	v, ok := obj.(*types.Var)
	if !ok {
		return true
	}
	// A parameter object's position sits inside the declaration's type.
	return !v.IsField() && !posWithin(v.Pos(), fa.fn.Decl.Type.Pos(), fa.fn.Decl.Type.End())
}

func posWithin(p, lo, hi token.Pos) bool { return p >= lo && p <= hi }

// demandedSites collects every call argument in the function body that
// occupies a demanded slot: a slot of an indexed module function with
// demand, or a math/rand source constructor's seed argument.
func (fa *flowAnalysis) demandedSites(mod *Module) []demandSite {
	if fa.sitesBuilt {
		return fa.sites
	}
	fa.sitesBuilt = true
	if fa.fn.Decl.Body == nil {
		return nil
	}
	ast.Inspect(fa.fn.Decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := CalleeOf(fa.fn.Pkg, call)
		if callee == nil {
			return true
		}
		if callee.Pkg() != nil && randPackages[callee.Pkg().Path()] && randSourceCtors[callee.Name()] {
			for i, arg := range call.Args {
				fa.sites = append(fa.sites, demandSite{arg: arg, index: i, callee: "rand." + callee.Name()})
			}
			return true
		}
		mask := fa.demand[funcObjKey(callee)]
		if mask == nil {
			return true
		}
		for i, arg := range call.Args {
			if i < len(mask) && mask[i] {
				fa.sites = append(fa.sites, demandSite{arg: arg, index: i, callee: callee.Name()})
			}
		}
		return true
	})
	return fa.sites
}

// describeUntainted classifies the failure for the diagnostic: a literal, a
// wall-clock read, or a generic untraceable value.
func describeUntainted(pkg *Package, arg ast.Expr) string {
	switch {
	case isWallClockDerived(pkg, arg):
		return "wall-clock-derived seed"
	case isLiteralExpr(arg):
		return "literal seed"
	default:
		return "seed"
	}
}

func untaintedVerb(arg ast.Expr) string {
	if isLiteralExpr(arg) {
		return "bakes in a constant stream independent of the run seed"
	}
	return "has no lineage to the run seed"
}

// isLiteralExpr reports whether expr is built purely from literals and
// operators (a constant with no seed lineage).
func isLiteralExpr(expr ast.Expr) bool {
	ok := true
	ast.Inspect(expr, func(n ast.Node) bool {
		switch n.(type) {
		case nil, *ast.BasicLit, *ast.UnaryExpr, *ast.BinaryExpr, *ast.ParenExpr:
			return true
		case *ast.Ident, *ast.CallExpr, *ast.SelectorExpr, *ast.IndexExpr:
			ok = false
			return false
		}
		return true
	})
	return ok
}

// isWallClockDerived reports whether expr reads the wall clock anywhere
// (time.Now and friends) — the canonical irreproducible seed source.
func isWallClockDerived(pkg *Package, expr ast.Expr) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return !found
		}
		if obj, okObj := pkg.Info.Uses[sel.Sel].(*types.Func); okObj &&
			obj.Pkg() != nil && obj.Pkg().Path() == "time" && wallclockFuncs[obj.Name()] {
			found = true
		}
		return !found
	})
	return found
}
