package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Module is the whole-module view the interprocedural analyzer (seedflow)
// runs over: every loaded package plus a cross-package function
// index and a call graph. Per-package analyzers see one package at a time;
// the bugs that shipped in PRs 3, 7 and 9 lived in dataflow and structure
// that spans packages, which is what this index makes visible.
type Module struct {
	// funcs indexes every function and method declaration in the loaded
	// packages by its stable key (see funcObjKey).
	funcs map[string]*ModuleFunc
	// pkgByFile maps each parsed file's name to its owning package, for
	// attributing module-level diagnostics to the right directive table.
	pkgByFile map[string]*Package
}

// A ModuleFunc is one function or method declaration with its owning package.
type ModuleFunc struct {
	Key  string
	Decl *ast.FuncDecl
	Pkg  *Package
}

// NewModule indexes the loaded packages. Packages type-check their
// dependencies from export data, so the *types.Func object a caller resolves
// is distinct from the object of the callee's own source load; the index is
// therefore keyed by (import path, receiver, name), which both sides agree
// on.
func NewModule(pkgs []*Package) *Module {
	m := &Module{
		funcs:     map[string]*ModuleFunc{},
		pkgByFile: map[string]*Package{},
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			m.pkgByFile[pkg.Fset.Position(f.Pos()).Filename] = pkg
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				obj, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				if obj == nil {
					continue
				}
				key := funcObjKey(obj)
				m.funcs[key] = &ModuleFunc{Key: key, Decl: fd, Pkg: pkg}
			}
		}
	}
	return m
}

// Funcs returns every indexed declaration in deterministic key order.
func (m *Module) Funcs() []*ModuleFunc {
	keys := make([]string, 0, len(m.funcs))
	for k := range m.funcs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*ModuleFunc, 0, len(keys))
	for _, k := range keys {
		out = append(out, m.funcs[k])
	}
	return out
}

// PackageOf returns the package owning the file at pos, or nil.
func (m *Module) PackageOf(fset *token.FileSet, pos token.Pos) *Package {
	return m.pkgByFile[fset.Position(pos).Filename]
}

// funcObjKey builds the stable cross-load key for a function object:
// "pkgpath.(Recv).Name" for methods, "pkgpath.Name" for functions.
func funcObjKey(obj *types.Func) string {
	var b strings.Builder
	if pkg := obj.Pkg(); pkg != nil {
		b.WriteString(pkg.Path())
	}
	b.WriteByte('.')
	if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil {
		b.WriteByte('(')
		b.WriteString(recvTypeName(sig.Recv().Type()))
		b.WriteString(").")
	}
	b.WriteString(obj.Name())
	return b.String()
}

// recvTypeName names a receiver type without its package qualifier.
func recvTypeName(t types.Type) string {
	if ptr, ok := t.(*types.Pointer); ok {
		return "*" + recvTypeName(ptr.Elem())
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return t.String()
}

// CalleeOf resolves a call expression inside pkg to the called function
// object, looking through method values and selector calls. Calls to
// builtins, function-typed variables and interface methods return nil.
func CalleeOf(pkg *Package, call *ast.CallExpr) *types.Func {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		fn, _ := pkg.Info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[fun]; ok {
			fn, _ := sel.Obj().(*types.Func)
			return fn
		}
		fn, _ := pkg.Info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}
