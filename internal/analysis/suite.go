package analysis

import "strings"

// criticalPackages are the determinism-critical packages: everything a
// campaign result flows through on its way from gradient to JSON byte.
// These paths must be pure functions of the spec and seeds.
var criticalPackages = []string{
	"internal/ps",
	"internal/cluster",
	"internal/transport",
	"internal/scenario",
	"internal/core",
}

// seededRandPackages extend the critical set with internal/data: dataset
// synthesis and sampling seed the gradient streams, so an unseeded RNG
// there breaks reproducibility one layer earlier.
var seededRandPackages = append([]string{"internal/data"}, criticalPackages...)

// goroutinePackages are the packages whose goroutines GoroLeak polices: the
// three that spawn concurrent machinery on campaign paths. A leaked
// goroutine outlives its round and races the next one — the class of bug
// the PR 9 accept-loop shutdown work was about.
var goroutinePackages = []string{
	"internal/ps",
	"internal/cluster",
	"internal/transport",
}

// wallclockAllowFiles is the explicit allowlist of deadline/pacing files —
// the only places in the critical packages permitted to read the wall
// clock: the cluster's deadline seam and the socket layer under it. Every
// state machine above the sockets (ps.Round, transport.ModelCollector) is
// clock-free and is told when a deadline passed. New wall-clock needs
// should thread through internal/cluster/clock.go rather than grow the list.
var wallclockAllowFiles = []string{
	"internal/cluster/clock.go", // round and broadcast deadlines, reconnect pauses
	"internal/transport/udp.go", // socket deadlines + send pacing
}

// A ScopedAnalyzer pairs an analyzer with the package set it polices and
// any per-file allowlist.
type ScopedAnalyzer struct {
	Analyzer *Analyzer
	// pkgSuffixes are import-path suffixes the analyzer runs on; empty
	// means every package.
	pkgSuffixes []string
	// allowFiles are filename suffixes the analyzer skips.
	allowFiles []string
}

// AppliesTo reports whether the analyzer polices pkgPath.
func (s ScopedAnalyzer) AppliesTo(pkgPath string) bool {
	if len(s.pkgSuffixes) == 0 {
		return true
	}
	for _, suffix := range s.pkgSuffixes {
		if strings.HasSuffix(pkgPath, suffix) {
			return true
		}
	}
	return false
}

// Allowed reports whether filename is allowlisted for this analyzer.
func (s ScopedAnalyzer) Allowed(filename string) bool {
	slashed := strings.ReplaceAll(filename, "\\", "/")
	for _, suffix := range s.allowFiles {
		if strings.HasSuffix(slashed, suffix) {
			return true
		}
	}
	return false
}

// DefaultSuite is the aggrevet configuration: the eight analyzers scoped to
// the packages whose invariants they enforce. Four are per-package syntax
// checks; four are dataflow and structure checks — seedflow (interprocedural
// seed lineage), selectdet (deterministic select resolution), goroleak
// (joined goroutines) and errdet (deterministic error strings).
func DefaultSuite() []ScopedAnalyzer {
	return []ScopedAnalyzer{
		{Analyzer: MapOrder, pkgSuffixes: criticalPackages},
		{Analyzer: WallClock, pkgSuffixes: criticalPackages, allowFiles: wallclockAllowFiles},
		{Analyzer: SeededRand, pkgSuffixes: seededRandPackages},
		{Analyzer: SortDet, pkgSuffixes: criticalPackages},
		{Analyzer: SeedFlow, pkgSuffixes: seededRandPackages},
		{Analyzer: SelectDet, pkgSuffixes: criticalPackages},
		{Analyzer: GoroLeak, pkgSuffixes: goroutinePackages},
		{Analyzer: ErrDet, pkgSuffixes: criticalPackages},
	}
}

// RunSuite executes every applicable analyzer of the suite over the loaded
// packages and returns the findings sorted by position — including the
// directive hygiene checks (unknown names, missing justifications, stale
// suppressions). Per-package analyzers run one pass per in-scope package;
// module analyzers run once over a Module index of everything loaded.
func RunSuite(suite []ScopedAnalyzer, pkgs []*Package) []Diagnostic {
	var analyzers []*Analyzer
	for _, s := range suite {
		analyzers = append(analyzers, s.Analyzer)
	}

	var diags []Diagnostic
	usedByPkg := map[*Package]map[string]bool{}
	ranDirectivesByPkg := map[*Package]map[string][]ScopedAnalyzer{}
	for _, pkg := range pkgs {
		usedByPkg[pkg] = map[string]bool{}
		ranDirectivesByPkg[pkg] = map[string][]ScopedAnalyzer{}
	}

	// Per-package passes.
	for _, pkg := range pkgs {
		for _, s := range suite {
			if s.Analyzer.Run == nil || !s.AppliesTo(pkg.PkgPath) {
				continue
			}
			ranDirectivesByPkg[pkg][s.Analyzer.Directive] = append(ranDirectivesByPkg[pkg][s.Analyzer.Directive], s)
			pass := &Pass{
				Analyzer:   s.Analyzer,
				Pkg:        pkg,
				allowFiles: s.allowFiles,
				diags:      &diags,
				used:       usedByPkg[pkg],
			}
			s.Analyzer.Run(pass)
		}
	}

	// Module passes.
	var module *Module
	for _, s := range suite {
		if s.Analyzer.RunModule == nil {
			continue
		}
		if module == nil {
			module = NewModule(pkgs)
		}
		for _, pkg := range pkgs {
			if s.Analyzer.Directive != "" && s.AppliesTo(pkg.PkgPath) {
				ranDirectivesByPkg[pkg][s.Analyzer.Directive] = append(ranDirectivesByPkg[pkg][s.Analyzer.Directive], s)
			}
		}
		mp := &ModulePass{
			Analyzer:   s.Analyzer,
			Module:     module,
			scope:      s,
			diags:      &diags,
			usedByPkg:  usedByPkg,
			reportedAt: map[string]bool{},
		}
		s.Analyzer.RunModule(mp)
	}

	// Directive hygiene, with every pass's consultations merged.
	for _, pkg := range pkgs {
		ran := ranDirectivesByPkg[pkg]
		diags = append(diags, checkDirectives(pkg, analyzers, usedByPkg[pkg],
			func(directiveName, filename string) bool {
				for _, s := range ran[directiveName] {
					if !s.Allowed(filename) {
						return true
					}
				}
				return false
			})...)
	}
	SortDiagnostics(diags)
	return diags
}
