// Command aggrevet machine-checks the repo's reproducibility contract: it
// runs the internal/analysis suite — four per-package syntax checks
// (maporder, wallclock, seededrand, sortdet) and four dataflow and structure
// checks (seedflow, selectdet, goroleak, errdet) — over the named packages
// and exits non-zero on any finding, including a malformed, stale or
// under-justified //aggrevet: directive. It is the `make lint` workhorse and
// runs in CI on every push.
//
// Usage:
//
//	aggrevet [packages]          # analyze (default ./...)
package main

import (
	"flag"
	"fmt"
	"os"

	"aggregathor/internal/analysis"
)

func main() {
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: aggrevet [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
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
