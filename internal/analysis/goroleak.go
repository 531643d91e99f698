package analysis

import (
	"go/ast"
	"go/types"
)

// GoroLeak requires every goroutine spawned in the concurrency packages
// (internal/ps, internal/cluster, internal/transport) to have a visible
// join or shutdown path. A goroutine with neither outlives its round and
// races the next one — reads a reset workspace, double-closes a rebuilt
// channel, or delivers a stale gradient into a fresh quorum. The PR 9
// accept-loop shutdown bug was exactly a goroutine nobody joined.
//
// A `go` statement passes when its body (the spawned function literal, or
// for `go f(...)` the resolved declaration of f) exhibits one of:
//
//  1. WaitGroup membership — it calls Done() on a sync.WaitGroup (usually
//     `defer wg.Done()`), so some Wait() observes its exit;
//  2. shutdown observation — it receives from ctx.Done() or from / ranges
//     over a channel that the same package close()s, so closing that
//     channel terminates it;
//  3. completion signal — it close()s a channel that the spawning function
//     receives from, so the spawner blocks until it is finished.
//
// Anything else needs an //aggrevet:goro justification saying who reaps
// the goroutine (process-lifetime singleton, joined by the OS on exit, ...).
var GoroLeak = &Analyzer{
	Name:      "goroleak",
	Directive: "goro",
	Run:       runGoroLeak,
}

func runGoroLeak(pass *Pass) {
	closed := packageClosedChans(pass)
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				g, ok := n.(*ast.GoStmt)
				if !ok {
					return true
				}
				body := goBody(pass, g)
				if body == nil {
					// Indirect call (method value, function variable): the
					// body is out of reach, so demand a justification.
					pass.Reportf(g.Pos(),
						"goroutine runs an indirect callee; aggrevet cannot see a join — justify with //aggrevet:goro or spawn a function literal")
					return true
				}
				if goroutineJoined(pass, fd, body, closed) {
					return true
				}
				pass.Reportf(g.Pos(),
					"goroutine has no visible join: no WaitGroup Done, no shutdown channel or ctx.Done() observed, no completion close() the spawner waits on; add one or justify with //aggrevet:goro")
				return true
			})
		}
	}
}

// goBody resolves the function body a go statement runs: the literal's body,
// or for a direct call to a same-package function, that function's body.
func goBody(pass *Pass, g *ast.GoStmt) *ast.BlockStmt {
	if lit, ok := g.Call.Fun.(*ast.FuncLit); ok {
		return lit.Body
	}
	if fn := CalleeOf(pass.Pkg, g.Call); fn != nil && fn.Pkg() == pass.Pkg.Types {
		for _, f := range pass.Pkg.Files {
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && pass.Pkg.Info.Defs[fd.Name] == fn {
					return fd.Body
				}
			}
		}
	}
	return nil
}

// goroutineJoined reports whether body exhibits one of the three join
// patterns relative to the enclosing declaration encl.
func goroutineJoined(pass *Pass, encl *ast.FuncDecl, body *ast.BlockStmt, closed map[types.Object]bool) bool {
	joined := false
	ast.Inspect(body, func(n ast.Node) bool {
		if joined {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			// Pattern 1: wg.Done().
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Done" {
				if isNamedType(pass.TypeOf(sel.X), "sync", "WaitGroup") {
					joined = true
				}
			}
			// Pattern 3: close(ch) with the spawner receiving <-ch.
			if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "close" && len(n.Args) == 1 {
				if obj := chanObj(pass, n.Args[0]); obj != nil && enclReceivesFrom(pass, encl, obj) {
					joined = true
				}
			}
		case *ast.UnaryExpr:
			// Pattern 2a: <-ctx.Done(), or 2b: receive from a channel this
			// package close()s.
			if receiveObservesShutdown(pass, n, closed) {
				joined = true
			}
		case *ast.RangeStmt:
			// Pattern 2b: range over a closed-by-this-package channel.
			if _, ok := pass.TypeOf(n.X).Underlying().(*types.Chan); ok {
				if obj := chanObj(pass, n.X); obj != nil && closed[obj] {
					joined = true
				}
			}
		}
		return !joined
	})
	return joined
}

// receiveObservesShutdown reports whether a unary receive reads a shutdown
// signal: ctx.Done() or a channel the package close()s.
func receiveObservesShutdown(pass *Pass, u *ast.UnaryExpr, closed map[types.Object]bool) bool {
	recvToken := "<-"
	if u.Op.String() != recvToken {
		return false
	}
	if call, ok := u.X.(*ast.CallExpr); ok {
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Done" {
			return isNamedType(pass.TypeOf(sel.X), "context", "Context")
		}
		return false
	}
	obj := chanObj(pass, u.X)
	return obj != nil && closed[obj]
}

// packageClosedChans collects every object passed to close() anywhere in the
// package — the channels whose closure is this package's shutdown protocol.
func packageClosedChans(pass *Pass) map[types.Object]bool {
	closed := map[types.Object]bool{}
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) != 1 {
				return true
			}
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "close" {
				if obj := chanObj(pass, call.Args[0]); obj != nil {
					closed[obj] = true
				}
			}
			return true
		})
	}
	return closed
}

// chanObj resolves a channel expression (ident, field selector) to its
// variable object for identity comparison across sites in one package load.
func chanObj(pass *Pass, expr ast.Expr) types.Object {
	switch e := expr.(type) {
	case *ast.Ident:
		return pass.ObjectOf(e)
	case *ast.SelectorExpr:
		if sel, ok := pass.Pkg.Info.Selections[e]; ok {
			return sel.Obj()
		}
		return pass.Pkg.Info.Uses[e.Sel]
	}
	return nil
}

// enclReceivesFrom reports whether the enclosing declaration contains a
// receive (unary or select comm) from the given channel object.
func enclReceivesFrom(pass *Pass, encl *ast.FuncDecl, obj types.Object) bool {
	found := false
	ast.Inspect(encl.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		if u, ok := n.(*ast.UnaryExpr); ok && u.Op.String() == "<-" {
			if chanObj(pass, u.X) == obj {
				found = true
			}
		}
		return !found
	})
	return found
}

// isNamedType reports whether t (possibly behind a pointer) is the named
// type path.name.
func isNamedType(t types.Type, path, name string) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Path() == path
}
