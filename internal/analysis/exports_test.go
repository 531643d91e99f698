package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
)

// uncalledExports returns the key (funcObjKey for functions and methods,
// "pkgpath.Name" otherwise) of every exported package-level name and every
// exported method declared in a package whose path starts with prefix that no
// file of pkgs references. Methods are keyed by receiver. A method also counts
// as referenced when an interface method of its name is called anywhere in
// pkgs, and String and Error always do: something outside the module's source
// (fmt, errors) or a dynamic call may be their caller. Struct fields are not
// checked here (idleFields checks them). Like every Load, it sees the
// files of the host's build configuration only.
func uncalledExports(pkgs []*Package, prefix string) []string {
	used := map[string]bool{}
	viaInterface := map[string]bool{"String": true, "Error": true}
	for _, pkg := range pkgs {
		for _, obj := range pkg.Info.Uses {
			if obj.Pkg() == nil {
				continue
			}
			fn, ok := obj.(*types.Func)
			if !ok {
				used[obj.Pkg().Path()+"."+obj.Name()] = true
				continue
			}
			used[funcObjKey(fn.Origin())] = true
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
				viaInterface[fn.Name()] = true
			}
		}
	}

	var dead []string
	for _, pkg := range pkgs {
		if !strings.HasPrefix(pkg.PkgPath, prefix) {
			continue
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					obj, _ := pkg.Info.Defs[d.Name].(*types.Func)
					if obj == nil || !obj.Exported() || d.Recv != nil && viaInterface[obj.Name()] {
						continue
					}
					if key := funcObjKey(obj); !used[key] {
						dead = append(dead, key)
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						var names []*ast.Ident
						switch s := spec.(type) {
						case *ast.TypeSpec:
							names = []*ast.Ident{s.Name}
						case *ast.ValueSpec:
							names = s.Names
						}
						for _, id := range names {
							if key := pkg.PkgPath + "." + id.Name; id.IsExported() && !used[key] {
								dead = append(dead, key)
							}
						}
					}
				}
			}
		}
	}
	sort.Strings(dead)
	return dead
}

// fieldKey identifies a struct field across one load. A source-checked
// package and the export data its importers read give the same field two
// objects, and export data keeps a declaration's line but not its column.
func fieldKey(fset *token.FileSet, v *types.Var) string {
	p := fset.Position(v.Pos())
	return fmt.Sprintf("%s:%d.%s", p.Filename, p.Line, v.Name())
}

// selectedFields returns the fields a selection passes through: the embedded
// fields a promoted selector walks, then the selected field itself.
func selectedFields(sel *types.Selection) []*types.Var {
	path := sel.Index()
	if sel.Kind() != types.FieldVal {
		path = path[:len(path)-1]
	}
	var fields []*types.Var
	t := sel.Recv()
	for _, i := range path {
		if p, ok := t.Underlying().(*types.Pointer); ok {
			t = p.Elem()
		}
		s, ok := t.Underlying().(*types.Struct)
		if !ok {
			break
		}
		fields = append(fields, s.Field(i))
		t = s.Field(i).Type()
	}
	return fields
}

// fieldAccesses records, by fieldKey, which struct fields some file of pkgs
// writes and which it reads. A write is a composite-literal key (or any
// field of an unkeyed literal), the target of an assignment or of ++/--, an
// &x.F, or a pointer-method call on x.F; each write also writes the
// struct-valued fields it sits in, and a promoted selector writes the
// embedded fields it walks. Every other use of a field is a read.
func fieldAccesses(pkgs []*Package) (written, read map[string]bool) {
	written, read = map[string]bool{}, map[string]bool{}
	for _, pkg := range pkgs {
		info, fset := pkg.Info, pkg.Fset
		onlyWritten := map[*ast.Ident]bool{}
		var store func(e ast.Expr)
		store = func(e ast.Expr) {
			switch e := ast.Unparen(e).(type) {
			case *ast.SelectorExpr:
				sel := info.Selections[e]
				if sel == nil || sel.Kind() != types.FieldVal {
					return
				}
				for _, v := range selectedFields(sel) {
					written[fieldKey(fset, v)] = true
				}
				if _, ok := info.TypeOf(e.X).Underlying().(*types.Pointer); !ok {
					store(e.X)
				}
			case *ast.IndexExpr:
				if _, ok := info.TypeOf(e.X).Underlying().(*types.Array); ok {
					store(e.X)
				}
			}
		}
		target := func(e ast.Expr) {
			if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
				onlyWritten[sel.Sel] = true
			}
			store(e)
		}
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						target(lhs)
					}
				case *ast.IncDecStmt:
					target(n.X)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						store(n.X)
					}
				case *ast.SelectorExpr:
					sel := info.Selections[n]
					if sel == nil {
						break
					}
					for _, v := range selectedFields(sel) {
						read[fieldKey(fset, v)] = true
					}
					if m, ok := sel.Obj().(*types.Func); ok && sel.Kind() == types.MethodVal {
						_, ptrRecv := m.Type().(*types.Signature).Recv().Type().(*types.Pointer)
						if _, ptrX := info.TypeOf(n.X).Underlying().(*types.Pointer); ptrRecv && !ptrX {
							for _, v := range selectedFields(sel) {
								written[fieldKey(fset, v)] = true
							}
							store(n.X)
						}
					}
				case *ast.CompositeLit:
					t := info.TypeOf(n)
					if p, ok := t.Underlying().(*types.Pointer); ok {
						t = p.Elem()
					}
					s, ok := t.Underlying().(*types.Struct)
					if !ok {
						break
					}
					for i, elt := range n.Elts {
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							key := kv.Key.(*ast.Ident)
							onlyWritten[key] = true
							written[fieldKey(fset, info.Uses[key].(*types.Var))] = true
						} else {
							written[fieldKey(fset, s.Field(i))] = true
						}
					}
				}
				return true
			})
		}
		for id, obj := range info.Uses {
			if v, ok := obj.(*types.Var); ok && v.IsField() && !onlyWritten[id] {
				read[fieldKey(fset, v)] = true
			}
		}
	}
	return written, read
}

// idleFields returns "pkgpath.Type.Field: no writer", ": no reader" or ":
// no writer, no reader" for every exported field of an exported struct type
// declared in a package whose path starts with prefix that no file of pkgs
// writes or reads. A field with a json tag is exempt: decoding writes it and
// encoding reads it.
func idleFields(pkgs []*Package, prefix string) []string {
	written, read := fieldAccesses(pkgs)
	var idle []string
	for _, pkg := range pkgs {
		if !strings.HasPrefix(pkg.PkgPath, prefix) {
			continue
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() || tn.IsAlias() {
				continue
			}
			s, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := range s.NumFields() {
				v := s.Field(i)
				if _, tagged := reflect.StructTag(s.Tag(i)).Lookup("json"); !v.Exported() || tagged {
					continue
				}
				var missing []string
				if key := fieldKey(pkg.Fset, v); !written[key] {
					missing = append(missing, "no writer")
				}
				if !read[fieldKey(pkg.Fset, v)] {
					missing = append(missing, "no reader")
				}
				if missing != nil {
					idle = append(idle, pkg.PkgPath+"."+name+"."+v.Name()+": "+strings.Join(missing, ", "))
				}
			}
		}
	}
	sort.Strings(idle)
	return idle
}

// exportProblems checks the flagged keys against an allowlist mapping a key
// to the reader, in a test or paper exhibit of another package, that keeps it
// exported: a flagged key off the list is a problem, and so is an entry that
// is no longer flagged.
func exportProblems(flagged []string, allow map[string]string) []string {
	var problems []string
	dead := map[string]bool{}
	for _, key := range flagged {
		dead[key] = true
		if allow[key] == "" {
			problems = append(problems, "unused outside tests: "+key+"; delete it, or move it into the test that uses it")
		}
	}
	for key, reader := range allow {
		if !dead[key] {
			problems = append(problems, "allowlist entry "+key+" (read by "+reader+") is no longer flagged: drop the entry")
		}
	}
	sort.Strings(problems)
	return problems
}

// TestEveryExportHasACaller is the size contract beside TestRepoIsClean:
// every exported name in internal/ is referenced by some non-test file of the
// module, its own package included, and every exported field of an exported
// struct there is written by one and read by one. Each allowlist entry names
// the test or paper exhibit in another package that uses an export no
// production code does.
func TestEveryExportHasACaller(t *testing.T) {
	allow := map[string]string{
		"aggregathor/internal/gar.WorkspaceGAR":                             "benchmark/bench_test.go (ROADMAP 2(g))",
		"aggregathor/internal/nn.(*Network).Summary":                        "Example_table1's golden, bench_test.go",
		"aggregathor/internal/ps.(AsyncConfig).ExpectedTag":                 "the staleness replay oracles of the cluster and core tests",
		"aggregathor/internal/ps.(ChurnConfig).Phase":                       "the churn replay oracles of the cluster and scenario tests",
		"aggregathor/internal/ps.(ChurnConfig).Permanent":                   "the churn replay oracle of internal/cluster/udpchurn_test.go",
		"aggregathor/internal/ps.(*ReplicatedCluster).CorrectReplicasAgree": "the replication invariant in internal/core/deployments_test.go",
		"aggregathor/internal/ps.(*Engine).Evictions":                       "the spoof test in internal/cluster/udpcluster_test.go",
		"aggregathor/internal/tensor.(Vector).SquaredNorm":                  "the root variance exhibit, bench_test.go",
		"aggregathor/internal/tensor.GoKernels":                             "gar.TestRulesMatchOnGoKernels, internal/gar/kernels_test.go",
		"aggregathor/internal/transport.(*UDPFanOut).Stats":                 "fanout_test.go; the broadcast twin of the sender Stats bench_test.go reads",
		"aggregathor/internal/transport.(*UDPReceiver).Stats":               "the root datagrams-per-syscall exhibits, bench_test.go",
		"aggregathor/internal/transport.(*UDPSender).Stats":                 "the root datagrams-per-syscall exhibits, bench_test.go",
		"aggregathor/internal/transport.(*UDPReceiver).ReadBuffer":          "the receive-buffer input ROADMAP 4(a) names",
		"aggregathor/internal/transport.(*UDPReceiver).WireMismatches":      "the wire-mismatch counter ROADMAP 1(c) names",
	}
	allowFields := map[string]string{
		"aggregathor/internal/attack.Context.Step: no reader":                   "the step-keyed shortAt attack of internal/cluster/tcpbyz_test.go",
		"aggregathor/internal/cluster.UDPClusterConfig.Unresponsive: no writer": "the straggler tests of internal/cluster (tcpcluster_test.go, udpcluster_test.go)",
		"aggregathor/internal/transport.ModelEvent.Lost: no reader":             "the collector tests of internal/transport/model_test.go",
	}
	pkgs, err := Load("../..", "./...")
	if err != nil {
		t.Fatal(err)
	}
	const prefix = "aggregathor/internal/"
	for _, p := range exportProblems(uncalledExports(pkgs, prefix), allow) {
		t.Error(p)
	}
	for _, p := range exportProblems(idleFields(pkgs, prefix), allowFields) {
		t.Error(p)
	}
}

// TestExportCallerFixture runs both checks on testdata/src/exports, each
// with one live and one stale allowlist entry.
func TestExportCallerFixture(t *testing.T) {
	pkgs, err := Load(".", "./testdata/src/exports")
	if err != nil {
		t.Fatal(err)
	}
	const pkg = "aggregathor/internal/analysis/testdata/src/exports"
	got := uncalledExports(pkgs, pkg)
	want := []string{pkg + ".(*Shape).Perimeter", pkg + ".Dead", pkg + ".Limit"}
	if !slices.Equal(got, want) {
		t.Fatalf("flagged %q, want %q", got, want)
	}
	problems := exportProblems(got, map[string]string{pkg + ".Dead": "a reader", pkg + ".Used": "a reader"})
	if len(problems) != 3 || !strings.Contains(problems[0], "allowlist entry "+pkg+".Used") {
		t.Fatalf("want Perimeter and Limit flagged and the Used entry stale, got:\n%s", strings.Join(problems, "\n"))
	}

	got = idleFields(pkgs, pkg)
	want = []string{pkg + ".Shape.Label: no reader", pkg + ".Shape.Scale: no writer"}
	if !slices.Equal(got, want) {
		t.Fatalf("flagged fields %q, want %q", got, want)
	}
	problems = exportProblems(got, map[string]string{want[0]: "a reader", pkg + ".Shape.Side: no writer": "a reader"})
	if len(problems) != 2 || !strings.Contains(problems[0], "allowlist entry "+pkg+".Shape.Side") || !strings.Contains(problems[1], want[1]) {
		t.Fatalf("want Scale flagged and the Side entry stale, got:\n%s", strings.Join(problems, "\n"))
	}
}
