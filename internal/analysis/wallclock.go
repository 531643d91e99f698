package analysis

import (
	"go/ast"
	"go/types"
)

// wallclockFuncs are the package time functions that observe or depend on
// the host wall clock. Conversions and constructors that only manipulate
// duration values (time.Duration, time.Unix, ...) are fine; reading "now"
// in any form is not.
var wallclockFuncs = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"Sleep":     true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
}

// WallClock flags wall-clock reads (time.Now, time.Since, time.Until,
// time.Sleep and the timer constructors) outside the explicit allowlist of
// deadline/pacing files. A wall-clock read on a result path makes output a
// function of host load — the class of bug behind PR 5's schedule
// memoization race with time.Now deadlines. Results must be pure functions
// of the run seed, never of host time: wall-clock timing lives outside the
// determinism-critical packages (cmd/bench, benchmark/).
var WallClock = &Analyzer{
	Name:      "wallclock",
	Directive: "wallclock",
	Run:       runWallClock,
}

func runWallClock(p *Pass) {
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			obj := p.ObjectOf(sel.Sel)
			fn, ok := obj.(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "time" {
				return true
			}
			if fn.Type().(*types.Signature).Recv() != nil {
				return true // method on a time value, not a clock read
			}
			if !wallclockFuncs[fn.Name()] {
				return true
			}
			p.Reportf(sel.Pos(),
				"time.%s reads the wall clock on a determinism-critical path; route it through the package's clock seam (an allowlisted deadline/pacing file) or justify with %swallclock",
				fn.Name(), DirectivePrefix)
			return true
		})
	}
}
