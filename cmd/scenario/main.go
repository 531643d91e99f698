// Command scenario executes a declarative GAR × attack × cluster × network
// campaign and writes structured results.
//
//	go run ./cmd/scenario                      # built-in smoke campaign
//	go run ./cmd/scenario -builtin tcp-smoke   # socket-distributed smoke sweep
//	go run ./cmd/scenario -builtin udp-smoke   # lossy-datagram smoke sweep
//	go run ./cmd/scenario -builtin wire-smoke  # float64-vs-float32 wire sweep
//	go run ./cmd/scenario -builtin churn-smoke # worker crash/rejoin sweep
//	go run ./cmd/scenario -spec sweep.json \
//	  -out results.json                        # spec file in, JSON out
//	go run ./cmd/scenario -dump-spec           # print the resolved spec as JSON
//	go run ./cmd/scenario -list                # print the available axes
//
// The run is deterministic: the same spec produces byte-identical JSON, so
// campaign outputs can be diffed across commits to catch robustness or
// performance regressions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"aggregathor/internal/attack"
	"aggregathor/internal/core"
	"aggregathor/internal/gar"
	"aggregathor/internal/scenario"
)

func main() {
	var (
		specPath = flag.String("spec", "", "campaign spec JSON file (empty = a built-in campaign, see -builtin)")
		builtin  = flag.String("builtin", "smoke", "built-in campaign used when -spec is empty: "+strings.Join(scenario.BuiltinNames(), " | "))
		outPath  = flag.String("out", "", "write campaign results JSON to this file (empty = no JSON output)")
		summary  = flag.Bool("summary", true, "print the per-attack GAR ranking summary")
		parallel = flag.Int("parallel", 0, "override the spec's worker-pool size (0 = spec/NumCPU)")
		list     = flag.Bool("list", false, "list available GARs, attacks and experiments, then exit")
		dumpSpec = flag.Bool("dump-spec", false, "print the resolved spec (-spec, else -builtin) as JSON with defaults applied, then exit")
	)
	flag.Parse()

	if *list {
		fmt.Printf("gars:        %s\n", strings.Join(gar.Names(), ", "))
		fmt.Printf("attacks:     %s, %s\n", scenario.AttackNone, strings.Join(attack.Names(), ", "))
		var exps []string
		for _, e := range core.Experiments() {
			exps = append(exps, e.Name)
		}
		fmt.Printf("experiments: %s\n", strings.Join(exps, ", "))
		fmt.Printf("networks:    backend in-process|tcp|udp, udpLinks (-1 = all), dropRate [0,1), recoup drop-gradient|fill-nan|fill-random, modelDropRate [0,1), modelRecoup skip|stale, wireFormat float64|float32, quorum, staleness, slowWorkers [0,1), churn {rate [0,1), downSteps, maxRejoins}, protocol tcp|udp\n")
		return
	}

	spec, err := resolveSpec(*specPath, *builtin)
	if err != nil {
		fatal(err)
	}
	if *dumpSpec {
		raw, err := specJSON(spec)
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(raw)
		return
	}
	if *parallel > 0 {
		spec.Parallelism = *parallel
	}

	campaign, err := scenario.Execute(*spec)
	if err != nil {
		fatal(err)
	}
	if *outPath != "" {
		raw, err := campaign.JSON()
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*outPath, raw, 0o644); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %d run results to %s\n", len(campaign.Results), *outPath)
	}
	if *summary {
		fmt.Print(campaign.Summary())
	}
}

// resolveSpec loads the spec file, or falls back to the named built-in
// campaign when no file is given.
func resolveSpec(path, builtin string) (*scenario.Spec, error) {
	if path != "" {
		return scenario.LoadSpec(path)
	}
	if builtin == "" {
		builtin = "smoke"
	}
	s, err := scenario.Builtin(builtin)
	return &s, err
}

// specJSON renders a spec (with defaults applied) for -dump-spec.
func specJSON(s *scenario.Spec) ([]byte, error) {
	raw, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(raw, '\n'), nil
}

// fatal prints the error (package errors already carry their prefix) and
// exits non-zero.
func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
