package analysis

import (
	"go/ast"
	"go/types"
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
// checked: a composite-literal key is a use. Like every Load, it sees the
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

// exportProblems checks uncalledExports against an allowlist mapping a key
// to the reader, in a test or paper exhibit of another package, that keeps it
// exported: an uncalled name off the list is a problem, and so is an entry
// whose name is called or gone.
func exportProblems(pkgs []*Package, prefix string, allow map[string]string) []string {
	var problems []string
	dead := map[string]bool{}
	for _, key := range uncalledExports(pkgs, prefix) {
		dead[key] = true
		if allow[key] == "" {
			problems = append(problems, key+" has no caller outside tests: delete it, or move it into the test that reads it")
		}
	}
	for key, reader := range allow {
		if !dead[key] {
			problems = append(problems, "allowlist entry "+key+" (read by "+reader+") has a production caller or no longer exists: drop the entry")
		}
	}
	sort.Strings(problems)
	return problems
}

// TestEveryExportHasACaller is the size contract beside TestRepoIsClean:
// every exported name in internal/ is referenced by some non-test file of the
// module, its own package included. Each allowlist entry names the test or
// paper exhibit in another package that reads an export no production code
// calls.
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
		"aggregathor/internal/transport.(*Reassembler).Pending":             "FuzzRound's roundSnapshot, internal/ps/round_test.go",
		"aggregathor/internal/transport.(Codec).DecodeGradient":             "the root codec exhibit, bench_test.go",
		"aggregathor/internal/transport.(*UDPFanOut).Stats":                 "fanout_test.go; the broadcast twin of the sender Stats bench_test.go reads",
		"aggregathor/internal/transport.(*UDPReceiver).Stats":               "the root datagrams-per-syscall exhibits, bench_test.go",
		"aggregathor/internal/transport.(*UDPSender).Stats":                 "the root datagrams-per-syscall exhibits, bench_test.go",
		"aggregathor/internal/transport.(*UDPReceiver).ReadBuffer":          "the receive-buffer input ROADMAP 4(a) names",
		"aggregathor/internal/transport.(*UDPReceiver).WireMismatches":      "the wire-mismatch counter ROADMAP 1(c) names",
	}
	pkgs, err := Load("../..", "./...")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range exportProblems(pkgs, "aggregathor/internal/", allow) {
		t.Error(p)
	}
}

// TestExportCallerFixture runs the check on testdata/src/exports, with one
// live and one stale allowlist entry.
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
	problems := exportProblems(pkgs, pkg, map[string]string{pkg + ".Dead": "a reader", pkg + ".Used": "a reader"})
	if len(problems) != 3 || !strings.Contains(problems[2], "allowlist entry "+pkg+".Used") {
		t.Fatalf("want Perimeter and Limit flagged and the Used entry stale, got:\n%s", strings.Join(problems, "\n"))
	}
}
