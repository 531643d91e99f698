// Command aggrevet machine-checks the repo's reproducibility contract: it
// runs the internal/analysis suite — five per-package syntax checks
// (maporder, wallclock, seededrand, sortdet, hotalloc) and four dataflow and
// structure checks (seedflow, selectdet, goroleak, errdet) — over the named packages and exits non-zero on any finding. It
// is the `make lint` workhorse and runs in CI on every push.
//
// Usage:
//
//	aggrevet [packages]          # analyze (default ./...)
//	aggrevet -escape             # diff the hot-path escape baseline
//	aggrevet -escape -write      # regenerate the committed baseline
//	aggrevet -directives         # audit every //aggrevet:* justification
//
// The escape mode complements hotalloc's syntactic pass: it captures the
// compiler's own `-gcflags=-m` escape decisions for the hot packages,
// normalizes away line numbers, and diffs them against the committed
// baseline (internal/analysis/escape_baseline.txt) — so an edit that makes
// a workspace kernel's local escape to the heap fails CI even when no new
// allocation expression was written.
//
// The directives mode lists the repo's full suppression audit trail — every
// //aggrevet:<name> comment with its file:line and justification — and
// fails on justifications too thin to audit (fewer than 10 characters):
// the directive set is the reviewed inventory of every intentionally
// nondeterministic line, and "ok" is not a review.
package main

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"

	"aggregathor/internal/analysis"
)

// escapePackages are the hot-path packages whose compiler escape decisions
// are pinned by the committed baseline.
var escapePackages = []string{
	"./internal/gar",
	"./internal/transport",
}

const baselinePath = "internal/analysis/escape_baseline.txt"

func main() {
	escape := flag.Bool("escape", false, "diff the hot-path gcflags=-m escape baseline instead of running the analyzers")
	directives := flag.Bool("directives", false, "audit every //aggrevet:* suppression directive instead of running the analyzers")
	write := flag.Bool("write", false, "with -escape: rewrite the committed baseline")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: aggrevet [-escape [-write] | -directives] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *escape {
		os.Exit(runEscape(*write))
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	if *directives {
		os.Exit(runDirectives(patterns))
	}
	pkgs, err := analysis.Load(".", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	diags := analysis.RunSuite(analysis.DefaultSuite(), pkgs)
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "aggrevet: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}

// minJustification is the shortest justification -directives accepts; below
// it a directive explains nothing ("ok", "fine", "racy").
const minJustification = 10

// runDirectives prints the repo-wide suppression audit trail and fails on
// unauditable justifications.
func runDirectives(patterns []string) int {
	pkgs, err := analysis.Load(".", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "aggrevet -directives:", err)
		return 2
	}
	thin := 0
	total := 0
	counts := map[string]int{}
	for _, pkg := range pkgs {
		for _, d := range pkg.Directives() {
			total++
			counts[d.Name]++
			fmt.Printf("%s:%d: //aggrevet:%s %s\n", d.Pos.Filename, d.Pos.Line, d.Name, d.Justification)
			if len(d.Justification) < minJustification {
				thin++
				fmt.Fprintf(os.Stderr, "%s:%d: justification %q is too thin to audit (< %d chars); say why the invariant holds\n",
					d.Pos.Filename, d.Pos.Line, d.Justification, minJustification)
			}
		}
	}
	names := make([]string, 0, len(counts))
	for n := range counts {
		names = append(names, n)
	}
	sort.Strings(names)
	var summary []string
	for _, n := range names {
		summary = append(summary, fmt.Sprintf("%s=%d", n, counts[n]))
	}
	fmt.Printf("aggrevet: %d directive(s): %s\n", total, strings.Join(summary, " "))
	if thin > 0 {
		fmt.Fprintf(os.Stderr, "aggrevet: %d unauditable justification(s)\n", thin)
		return 1
	}
	return 0
}

// runEscape regenerates the normalized escape profile of the hot packages
// and either writes it (-write) or diffs it against the committed baseline.
func runEscape(write bool) int {
	profile, err := escapeProfile()
	if err != nil {
		fmt.Fprintln(os.Stderr, "aggrevet -escape:", err)
		return 2
	}
	if write {
		if err := os.WriteFile(baselinePath, []byte(profile), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "aggrevet -escape:", err)
			return 2
		}
		fmt.Printf("aggrevet: wrote %s (%d lines)\n", baselinePath, strings.Count(profile, "\n"))
		return 0
	}
	want, err := os.ReadFile(baselinePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "aggrevet -escape:", err)
		return 2
	}
	if string(want) == profile {
		fmt.Println("aggrevet: escape baseline clean")
		return 0
	}
	fmt.Fprintln(os.Stderr, "aggrevet: hot-path escape profile drifted from", baselinePath)
	printProfileDiff(string(want), profile)
	fmt.Fprintln(os.Stderr, "aggrevet: if the change is intended, regenerate with: go run ./cmd/aggrevet -escape -write")
	return 1
}

// escapeLine matches the compiler diagnostics that matter: values moving to
// the heap. "does not escape" lines are noise for this purpose.
var escapeLine = regexp.MustCompile(`^(.+\.go):\d+:\d+: (.+ (?:escapes to heap|moved to heap.*))$`)

// escapeProfile builds the normalized escape profile: for each hot package,
// every distinct `file: expression escapes` line with positions stripped,
// sorted. Stripping line/column keeps the baseline stable under unrelated
// edits to the same files; sorting makes it independent of build order.
func escapeProfile() (string, error) {
	set := map[string]bool{}
	for _, pkg := range escapePackages {
		// One package per invocation: parallel package builds interleave
		// stderr. The build cache replays compiler diagnostics, so repeat
		// runs are cheap.
		cmd := exec.Command("go", "build", "-gcflags=-m", pkg)
		var out bytes.Buffer
		cmd.Stdout = &out
		cmd.Stderr = &out
		if err := cmd.Run(); err != nil {
			return "", fmt.Errorf("go build -gcflags=-m %s: %v\n%s", pkg, err, out.String())
		}
		sc := bufio.NewScanner(&out)
		for sc.Scan() {
			m := escapeLine.FindStringSubmatch(sc.Text())
			if m == nil {
				continue
			}
			file := filepath.ToSlash(m[1])
			if strings.HasSuffix(file, "_test.go") {
				continue
			}
			set[file+": "+m[2]] = true
		}
		if err := sc.Err(); err != nil {
			return "", err
		}
	}
	lines := make([]string, 0, len(set))
	for l := range set {
		lines = append(lines, l)
	}
	sort.Strings(lines)
	var b strings.Builder
	b.WriteString("# aggrevet hot-path escape baseline: `go build -gcflags=-m` escapes-to-heap\n")
	b.WriteString("# lines for ")
	b.WriteString(strings.Join(escapePackages, ", "))
	b.WriteString(", positions stripped, sorted.\n")
	b.WriteString("# Regenerate with: go run ./cmd/aggrevet -escape -write\n")
	for _, l := range lines {
		b.WriteString(l)
		b.WriteByte('\n')
	}
	return b.String(), nil
}

// printProfileDiff renders a minimal set diff between baseline and current.
func printProfileDiff(want, got string) {
	wantSet := lineSet(want)
	gotSet := lineSet(got)
	var added, removed []string
	for l := range gotSet {
		if !wantSet[l] {
			added = append(added, l)
		}
	}
	for l := range wantSet {
		if !gotSet[l] {
			removed = append(removed, l)
		}
	}
	sort.Strings(added)
	sort.Strings(removed)
	for _, l := range added {
		fmt.Fprintln(os.Stderr, "  + "+l)
	}
	for _, l := range removed {
		fmt.Fprintln(os.Stderr, "  - "+l)
	}
}

func lineSet(s string) map[string]bool {
	out := map[string]bool{}
	for _, l := range strings.Split(s, "\n") {
		if l == "" || strings.HasPrefix(l, "#") {
			continue
		}
		out[l] = true
	}
	return out
}
