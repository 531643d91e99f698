// Package analysis is aggrevet's self-contained static-analysis framework:
// a miniature go/analysis built on nothing but the standard library's
// go/parser and go/types (packages are loaded through `go list -export
// -json`, so the module stays zero-dependency).
//
// The repo's reproducibility contract — byte-identical campaign JSON across
// reruns and backends — rests on invariants that the type system cannot
// express: no unordered map iteration on result paths, no wall-clock reads
// outside the opt-in timing seams, all randomness derived from the ps.*Seed
// helpers. Each analyzer in this package machine-checks one of those
// invariants; cmd/aggrevet drives them over ./... on every push.
//
// Intentional violations are justified in place with a suppression
// directive, one per invariant:
//
//	//aggrevet:ordered   <why this map iteration is order-independent>
//	//aggrevet:wallclock <why this wall-clock read cannot leak into results>
//	//aggrevet:seeded    <why this RNG seed is deterministic>
//	//aggrevet:stable    <why this comparator is a total order>
//
// A directive suppresses matching diagnostics on its own line and on the
// line directly below it (so it can trail the offending statement or sit on
// its own line above). A justification of at least 10 characters is
// mandatory, unknown directive names are themselves diagnosed, and a
// directive that suppresses nothing is reported as stale — the set of
// directives in the tree is a grep-able audit trail of every intentionally
// nondeterministic line.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer checks one invariant of the reproducibility contract. It is
// either per-package (Run set: one pass per package, no cross-package view)
// or module-wide (RunModule set: one pass over the whole loaded module, for
// invariants that live in interprocedural dataflow or cross-package
// structure — seed lineage).
type Analyzer struct {
	// Name identifies the analyzer in diagnostics, e.g. "maporder".
	Name string
	// Doc is a one-paragraph description of the invariant.
	Doc string
	// Directive is the suppression directive name that justifies an
	// intentional violation, e.g. "ordered" for //aggrevet:ordered.
	Directive string
	// Run inspects one package and reports findings through the pass.
	Run func(*Pass)
	// RunModule inspects the whole module at once. Exactly one of Run and
	// RunModule is set.
	RunModule func(*ModulePass)
}

// A ModulePass is one module-wide analyzer's view of the loaded module.
// Reportf attributes each finding to the owning package for directive
// suppression and honours the analyzer's package scope, so module analyzers
// may traverse everything and report only where they police.
type ModulePass struct {
	Analyzer *Analyzer
	Module   *Module

	scope      ScopedAnalyzer
	diags      *[]Diagnostic
	usedByPkg  map[*Package]map[string]bool
	reportedAt map[string]bool
}

// Reportf reports a finding at pos (a position inside one of the module's
// files) unless the owning package is out of the analyzer's scope, the file
// is allowlisted, or the line carries the analyzer's suppression directive.
func (mp *ModulePass) Reportf(fset *token.FileSet, pos token.Pos, format string, args ...any) {
	pkg := mp.Module.PackageOf(fset, pos)
	if pkg == nil {
		return
	}
	if !mp.scope.AppliesTo(pkg.PkgPath) {
		return
	}
	position := pkg.Fset.Position(pos)
	if mp.scope.Allowed(position.Filename) {
		return
	}
	if mp.Analyzer.Directive != "" {
		if key, ok := pkg.directiveAt(position, mp.Analyzer.Directive); ok {
			mp.usedByPkg[pkg][key] = true
			return
		}
	}
	mp.reportAt(position, format, args...)
}

func (mp *ModulePass) reportAt(position token.Position, format string, args ...any) {
	d := Diagnostic{
		Pos:      position,
		Analyzer: mp.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	}
	// Module analyzers can reach the same finding through several call
	// paths; report each (position, message) once.
	key := d.String()
	if mp.reportedAt[key] {
		return
	}
	mp.reportedAt[key] = true
	*mp.diags = append(*mp.diags, d)
}

// A Pass is one analyzer's view of one package.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package

	// allowFiles holds filename suffixes (slash-separated, e.g.
	// "internal/cluster/clock.go") inside which this analyzer stays
	// silent — the per-file allowlist for invariants that need a small
	// number of opt-in sites (wall-clock deadline/pacing files).
	allowFiles []string

	diags *[]Diagnostic
	// used records directives consulted by Reportf, keyed file:line, so
	// the suite can flag stale directives afterwards.
	used map[string]bool
}

// A Diagnostic is one finding: position, owning analyzer and a message that
// ends with a one-line fix hint.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// Reportf reports a finding at pos unless the line (or the line above it)
// carries this analyzer's suppression directive. A consulted directive is
// marked used whether or not other findings share it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Pkg.Fset.Position(pos)
	if p.allowed(position.Filename) {
		return
	}
	if key, ok := p.Pkg.directiveAt(position, p.Analyzer.Directive); ok {
		p.used[key] = true
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      position,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// allowed reports whether filename is on this pass's file allowlist.
func (p *Pass) allowed(filename string) bool {
	slashed := strings.ReplaceAll(filename, "\\", "/")
	for _, suffix := range p.allowFiles {
		if strings.HasSuffix(slashed, suffix) {
			return true
		}
	}
	return false
}

// TypeOf returns the type of expr in this package, or nil.
func (p *Pass) TypeOf(expr ast.Expr) types.Type {
	return p.Pkg.Info.TypeOf(expr)
}

// ObjectOf resolves an identifier to its object (use or def), or nil.
func (p *Pass) ObjectOf(id *ast.Ident) types.Object {
	if obj := p.Pkg.Info.Uses[id]; obj != nil {
		return obj
	}
	return p.Pkg.Info.Defs[id]
}

// DirectivePrefix introduces every suppression comment.
const DirectivePrefix = "//aggrevet:"

// directive is one parsed //aggrevet:name comment.
type directive struct {
	pos           token.Position
	name          string
	justification string
}

// parseDirectives extracts every //aggrevet: comment in the package,
// indexed by file:line for suppression lookup.
func parseDirectives(fset *token.FileSet, files []*ast.File) map[string]directive {
	out := map[string]directive{}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, DirectivePrefix) {
					continue
				}
				rest := strings.TrimPrefix(c.Text, DirectivePrefix)
				// A nested " // " starts trailing commentary (fixture want
				// markers, editor annotations) — not justification text.
				if i := strings.Index(rest, " // "); i >= 0 {
					rest = rest[:i]
				}
				name, justification, _ := strings.Cut(rest, " ")
				pos := fset.Position(c.Pos())
				out[directiveKey(pos.Filename, pos.Line)] = directive{
					pos:           pos,
					name:          name,
					justification: strings.TrimSpace(justification),
				}
			}
		}
	}
	return out
}

func directiveKey(filename string, line int) string {
	return fmt.Sprintf("%s:%d", filename, line)
}

// directiveAt looks for a directive named name on pos's line or the line
// above it and returns its key when found.
func (pkg *Package) directiveAt(pos token.Position, name string) (key string, ok bool) {
	for _, line := range []int{pos.Line, pos.Line - 1} {
		k := directiveKey(pos.Filename, line)
		if d, found := pkg.directives[k]; found && d.name == name {
			return k, true
		}
	}
	return "", false
}

// knownDirectives is the set of valid suppression names; it is derived from
// the analyzers registered in the default suite plus any extra passed to
// checkDirectives.
func knownDirectives(analyzers []*Analyzer) map[string]bool {
	known := map[string]bool{}
	for _, a := range analyzers {
		if a.Directive != "" {
			known[a.Directive] = true
		}
	}
	return known
}

// minJustification is the shortest justification a directive may carry;
// below it a directive explains nothing ("ok", "fine", "racy").
const minJustification = 10

// checkDirectives diagnoses malformed and stale suppression comments in one
// package after every analyzer has run: unknown directive names (typos
// would otherwise silently suppress nothing), justifications shorter than
// minJustification (the audit trail must say WHY), and directives that no
// analyzer consulted (stale suppressions rot into misinformation). ranFor
// reports whether the directive's analyzer actually ran over the given
// file, so a directive is only "stale" where its analyzer looked.
func checkDirectives(pkg *Package, analyzers []*Analyzer, used map[string]bool, ranFor func(directiveName, filename string) bool) []Diagnostic {
	known := knownDirectives(analyzers)
	var diags []Diagnostic
	keys := make([]string, 0, len(pkg.directives))
	for k := range pkg.directives {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		d := pkg.directives[k]
		switch {
		case !known[d.name]:
			diags = append(diags, Diagnostic{
				Pos:      d.pos,
				Analyzer: "aggrevet",
				Message: fmt.Sprintf("unknown directive %q; valid names: %s",
					DirectivePrefix+d.name, strings.Join(sortedKeys(known), ", ")),
			})
		case len(d.justification) < minJustification:
			diags = append(diags, Diagnostic{
				Pos:      d.pos,
				Analyzer: "aggrevet",
				Message: fmt.Sprintf("%s%s needs a justification of at least %d characters: say why this line may break the invariant",
					DirectivePrefix, d.name, minJustification),
			})
		case !used[k] && ranFor(d.name, d.pos.Filename):
			diags = append(diags, Diagnostic{
				Pos:      d.pos,
				Analyzer: "aggrevet",
				Message: fmt.Sprintf("stale %s%s directive: it suppresses no diagnostic; delete it",
					DirectivePrefix, d.name),
			})
		}
	}
	return diags
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// SortDiagnostics orders findings by file, line, column, then analyzer, so
// driver output is deterministic no matter the package walk order.
func SortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}
