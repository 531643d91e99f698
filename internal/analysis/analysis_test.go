package analysis

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// --- fixture harness -------------------------------------------------------

// wantMarker introduces an expectation comment: `// want "regex"` (one or
// more Go-quoted or backquoted regexes) at the end of the line a diagnostic
// must land on.
var (
	wantMarker  = regexp.MustCompile(`// want (.+)$`)
	wantLiteral = regexp.MustCompile("`([^`]*)`|\"((?:[^\"\\\\]|\\\\.)*)\"")
)

type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

// parseWants scans a fixture package directory for expectation comments.
func parseWants(t *testing.T, dir string) []*expectation {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var wants []*expectation
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(raw), "\n") {
			m := wantMarker.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			lits := wantLiteral.FindAllStringSubmatch(m[1], -1)
			if len(lits) == 0 {
				t.Fatalf("%s:%d: want marker with no quoted regex", path, i+1)
			}
			for _, lit := range lits {
				text := lit[1]
				if text == "" {
					text = lit[2]
				}
				re, err := regexp.Compile(text)
				if err != nil {
					t.Fatalf("%s:%d: bad want regex %q: %v", path, i+1, text, err)
				}
				wants = append(wants, &expectation{file: path, line: i + 1, re: re})
			}
		}
	}
	return wants
}

// checkFixture runs one analyzer over one fixture package and requires its
// diagnostics to match the want comments exactly — every want hit, no
// diagnostic unaccounted for.
func checkFixture(t *testing.T, a *Analyzer, fixture string, allowFiles []string) {
	t.Helper()
	rel := "./testdata/src/" + fixture
	pkgs, err := Load(".", rel)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("loaded %d packages for %s, want 1", len(pkgs), rel)
	}
	diags := RunSuite([]ScopedAnalyzer{{Analyzer: a, allowFiles: allowFiles}}, pkgs)
	wants := parseWants(t, filepath.Join("testdata", "src", fixture))

	var unexpected []string
	for _, d := range diags {
		matched := false
		for _, w := range wants {
			if w.hit || filepath.Base(w.file) != filepath.Base(d.Pos.Filename) || w.line != d.Pos.Line {
				continue
			}
			if w.re.MatchString(d.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			unexpected = append(unexpected, d.String())
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
	for _, u := range unexpected {
		t.Errorf("unexpected diagnostic: %s", u)
	}
}

func TestMapOrderFixture(t *testing.T)   { checkFixture(t, MapOrder, "maporder", nil) }
func TestSeededRandFixture(t *testing.T) { checkFixture(t, SeededRand, "seededrand", nil) }
func TestSortDetFixture(t *testing.T)    { checkFixture(t, SortDet, "sortdet", nil) }
func TestDirectivesFixture(t *testing.T) { checkFixture(t, MapOrder, "directives", nil) }
func TestSeedFlowFixture(t *testing.T)   { checkFixture(t, SeedFlow, "seedflow", nil) }
func TestSelectDetFixture(t *testing.T)  { checkFixture(t, SelectDet, "selectdet", nil) }
func TestGoroLeakFixture(t *testing.T)   { checkFixture(t, GoroLeak, "goroleak", nil) }
func TestErrDetFixture(t *testing.T)     { checkFixture(t, ErrDet, "errdet", nil) }

// TestDefaultSuiteHasEightAnalyzers pins the suite composition: seven
// per-package passes and one module pass, with no duplicate names or
// directive collisions.
func TestDefaultSuiteHasEightAnalyzers(t *testing.T) {
	suite := DefaultSuite()
	if len(suite) != 8 {
		t.Fatalf("default suite has %d analyzers, want 8", len(suite))
	}
	names := map[string]bool{}
	directives := map[string]bool{}
	perPkg, module := 0, 0
	for _, s := range suite {
		a := s.Analyzer
		if names[a.Name] {
			t.Fatalf("duplicate analyzer name %q", a.Name)
		}
		names[a.Name] = true
		if a.Directive != "" {
			if directives[a.Directive] {
				t.Fatalf("duplicate directive %q", a.Directive)
			}
			directives[a.Directive] = true
		}
		switch {
		case a.Run != nil && a.RunModule == nil:
			perPkg++
		case a.RunModule != nil && a.Run == nil:
			module++
		default:
			t.Fatalf("analyzer %q must set exactly one of Run and RunModule", a.Name)
		}
	}
	if perPkg != 7 || module != 1 {
		t.Fatalf("suite split per-package=%d module=%d, want 7 and 1", perPkg, module)
	}
}

// TestWallClockFixture runs the wallclock fixture with allowed.go standing
// in for a deadline/pacing seam file, then re-runs without the allowlist
// and requires exactly the seam's reads to surface — proving the allowlist
// is what keeps them silent.
func TestWallClockFixture(t *testing.T) {
	allow := []string{"testdata/src/wallclock/allowed.go"}
	checkFixture(t, WallClock, "wallclock", allow)

	pkgs, err := Load(".", "./testdata/src/wallclock")
	if err != nil {
		t.Fatal(err)
	}
	diags := RunSuite([]ScopedAnalyzer{{Analyzer: WallClock}}, pkgs)
	var inSeam []string
	for _, d := range diags {
		if filepath.Base(d.Pos.Filename) == "allowed.go" {
			inSeam = append(inSeam, d.Message)
		}
	}
	if len(inSeam) != 2 {
		t.Fatalf("running without the allowlist should surface the 2 seam reads in allowed.go, got %d:\n%s",
			len(inSeam), strings.Join(inSeam, "\n"))
	}
}

// --- the real repo ---------------------------------------------------------

// TestRepoIsClean is the contract: the default suite over the whole module
// reports nothing. Every intentional violation in the tree is expected to
// carry a justification directive instead of relying on this test's
// tolerance.
func TestRepoIsClean(t *testing.T) {
	pkgs, err := Load("../..", "./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("loaded only %d packages from the module; the pattern is wrong", len(pkgs))
	}
	diags := RunSuite(DefaultSuite(), pkgs)
	for _, d := range diags {
		t.Errorf("%s", d)
	}
	if len(diags) > 0 {
		t.Fatalf("aggrevet found %d finding(s) on the repo; fix them or justify with //aggrevet: directives", len(diags))
	}
}

// TestSuiteScopesExcludeNonCriticalPackages pins the scoping: maporder must
// not police packages outside the determinism-critical set (internal/nn
// ranges maps freely), while policing all five critical ones.
func TestSuiteScopesExcludeNonCriticalPackages(t *testing.T) {
	var mapOrder ScopedAnalyzer
	for _, s := range DefaultSuite() {
		if s.Analyzer == MapOrder {
			mapOrder = s
		}
	}
	if mapOrder.Analyzer == nil {
		t.Fatal("maporder missing from the default suite")
	}
	for _, pkg := range criticalPackages {
		if !mapOrder.AppliesTo("aggregathor/" + pkg) {
			t.Errorf("maporder must police %s", pkg)
		}
	}
	for _, pkg := range []string{"aggregathor/internal/nn", "aggregathor/internal/gar", "aggregathor/cmd/bench"} {
		if mapOrder.AppliesTo(pkg) {
			t.Errorf("maporder must not police %s", pkg)
		}
	}
}

// --- reintroducing a shipped bug must fail the lint ------------------------

// TestReintroducedUnsortedFlushIsCaught copies the module to a scratch dir,
// reintroduces the PR 3 flushAny bug shape (an unsorted range over the
// reassembler's pending map) in internal/transport, and requires
// `aggrevet ./internal/transport` to fail with a maporder diagnostic — the
// acceptance check that the CI lint job guards the contract.
func TestReintroducedUnsortedFlushIsCaught(t *testing.T) {
	if testing.Short() {
		t.Skip("copies the module and shells out to the go tool")
	}
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	scratch := t.TempDir()
	copyModule(t, root, scratch)

	bug := `package transport

// flushAnyUnsorted reintroduces the PR 3 bug shape: flushing whichever
// partial the randomized map order visits first.
func (r *UDPReceiver) flushAnyUnsorted() (*GradientMsg, error) {
	for key := range r.asm.pending {
		if msg, ok := r.asm.Flush(key[0], key[1]); ok {
			return msg, nil
		}
	}
	return nil, ErrTimeout
}
`
	if err := os.WriteFile(filepath.Join(scratch, "internal", "transport", "reintroduced.go"), []byte(bug), 0o644); err != nil {
		t.Fatal(err)
	}

	pkgs, err := Load(scratch, "./internal/transport")
	if err != nil {
		t.Fatal(err)
	}
	diags := RunSuite(DefaultSuite(), pkgs)
	found := false
	for _, d := range diags {
		if d.Analyzer == "maporder" && filepath.Base(d.Pos.Filename) == "reintroduced.go" {
			found = true
		}
	}
	if !found {
		var lines []string
		for _, d := range diags {
			lines = append(lines, d.String())
		}
		t.Fatalf("reintroduced unsorted map range in internal/transport was not caught; diagnostics:\n%s",
			strings.Join(lines, "\n"))
	}
}

// copyModule copies the module tree (sans VCS metadata and scratch output)
// for an isolated lint run.
func copyModule(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if rel == "." {
			return nil
		}
		base := filepath.Base(rel)
		if d.IsDir() {
			if base == ".git" || base == ".github" {
				return filepath.SkipDir
			}
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), raw, 0o644)
	})
	if err != nil {
		t.Fatalf("copying module: %v", err)
	}
}

// Silence unused-helper linters for fmt (used in debugging sessions).
var _ = fmt.Sprintf
