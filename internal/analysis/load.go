package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
)

// Package is one loaded, parsed and type-checked package.
type Package struct {
	PkgPath string

	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	directives map[string]directive
}

// listedPackage is the subset of `go list -json` output the loader needs.
type listedPackage struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	DepOnly    bool
	Standard   bool
	Error      *struct{ Err string }
}

// Load lists the packages matching patterns from dir with `go list -export
// -json -deps`, then parses and type-checks each matched (non-dependency)
// package from source, importing its dependencies from the compiler export
// data the list step produced. Test files are not loaded: the contract the
// analyzers enforce binds shipped code; tests exercise nondeterminism on
// purpose.
func Load(dir string, patterns ...string) ([]*Package, error) {
	listed, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}

	exports := map[string]string{}
	var targets []*listedPackage
	for _, lp := range listed {
		if lp.Error != nil {
			return nil, fmt.Errorf("analysis: go list: package %s: %s", lp.ImportPath, lp.Error.Err)
		}
		if lp.Export != "" {
			exports[lp.ImportPath] = lp.Export
		}
		if !lp.DepOnly && !lp.Standard {
			targets = append(targets, lp)
		}
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i].ImportPath < targets[j].ImportPath })

	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		exportFile, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("analysis: no export data listed for %q", path)
		}
		return os.Open(exportFile)
	})

	var pkgs []*Package
	for _, lp := range targets {
		pkg, err := typecheck(fset, imp, lp)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// goList shells out to the go tool — the one allowed subprocess, which keeps
// the module itself free of analysis dependencies — and decodes its JSON
// stream.
func goList(dir string, patterns []string) ([]*listedPackage, error) {
	args := append([]string{"list", "-e", "-export", "-json", "-deps"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("analysis: go %v: %v\n%s", args, err, stderr.String())
	}
	dec := json.NewDecoder(bytes.NewReader(out))
	var listed []*listedPackage
	for {
		lp := new(listedPackage)
		if err := dec.Decode(lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("analysis: decoding go list output: %v", err)
		}
		listed = append(listed, lp)
	}
	return listed, nil
}

// typecheck parses one package's non-test files and runs go/types over them
// with dependencies resolved from export data.
func typecheck(fset *token.FileSet, imp types.Importer, lp *listedPackage) (*Package, error) {
	var files []*ast.File
	for _, name := range lp.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("analysis: parsing %s: %v", name, err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(lp.ImportPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %v", lp.ImportPath, err)
	}
	return &Package{
		PkgPath:    lp.ImportPath,
		Fset:       fset,
		Files:      files,
		Types:      tpkg,
		Info:       info,
		directives: parseDirectives(fset, files),
	}, nil
}
