package analysis

import (
	"go/ast"
	"go/constant"
	"go/types"
	"strings"
)

// ErrDet polices error-string determinism. The scenario engine records
// every per-cell failure into campaign JSON via out.Error = err.Error(), so
// an error message is result bytes: two runs of the same seed must produce
// the same string. Three fmt verbs break that contract in an fmt.Errorf
// call on a critical package:
//
//   - %p (and pointer formatting generally) prints a heap address that
//     changes every run;
//   - %v / %s on a map-typed argument formats a map — keys are sorted, but
//     the element formatting may itself recurse into nondeterministic
//     values, and the message shape silently changes with map contents;
//   - %v / %s on an error-typed argument flattens a sentinel into plain
//     text: use %w instead, so errors.Is keeps working across layers and
//     the wrapped message stays the sentinel's stable string.
//
// Justify an intentional exception with //aggrevet:errfmt (for example an
// error string that provably never reaches a Result).
var ErrDet = &Analyzer{
	Name:      "errdet",
	Directive: "errfmt",
	Run:       runErrDet,
}

func runErrDet(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !isPkgCall(pass, call, "fmt", "Errorf") || len(call.Args) == 0 {
				return true
			}
			format, ok := stringConstant(pass, call.Args[0])
			if !ok {
				return true
			}
			verbs, ok := parseVerbs(format)
			if !ok {
				return true // indexed args or malformed format: vet's problem
			}
			args := call.Args[1:]
			for _, v := range verbs {
				if v.verb == 'p' {
					pass.Reportf(call.Args[0].Pos(),
						"%%p formats a heap address into an error string; addresses differ across runs and leak into campaign JSON — format a stable identity instead or justify with //aggrevet:errfmt")
					continue
				}
				if v.argIndex < 0 || v.argIndex >= len(args) {
					continue
				}
				arg := args[v.argIndex]
				t := pass.TypeOf(arg)
				if t == nil {
					continue
				}
				switch {
				case (v.verb == 'v' || v.verb == 's') && isMapType(t):
					pass.Reportf(arg.Pos(),
						"formatting a map into an error string: the message shape depends on map contents and recursively formatted values may not be deterministic — format an explicit sorted projection or justify with //aggrevet:errfmt")
				case (v.verb == 'v' || v.verb == 's') && isErrorType(t):
					pass.Reportf(arg.Pos(),
						"error-typed argument flattened with %%%c: wrap with %%w so sentinel identity survives for errors.Is across layers", v.verb)
				}
			}
			return true
		})
	}
}

// verb is one parsed format verb with the flattened argument slot it
// consumes (-1 when it consumes none, e.g. %%).
type verb struct {
	verb     rune
	argIndex int
}

// parseVerbs extracts the verbs of a fmt format string in argument order.
// Width/precision stars consume argument slots. Explicit argument indexes
// (%[1]d) abort the parse.
func parseVerbs(format string) ([]verb, bool) {
	var out []verb
	arg := 0
	for i := 0; i < len(format); i++ {
		if format[i] != '%' {
			continue
		}
		i++
		// flags
		for i < len(format) && strings.ContainsRune("+-# 0", rune(format[i])) {
			i++
		}
		// width
		for i < len(format) && (format[i] == '*' || (format[i] >= '0' && format[i] <= '9')) {
			if format[i] == '*' {
				arg++
			}
			i++
		}
		// precision
		if i < len(format) && format[i] == '.' {
			i++
			for i < len(format) && (format[i] == '*' || (format[i] >= '0' && format[i] <= '9')) {
				if format[i] == '*' {
					arg++
				}
				i++
			}
		}
		if i >= len(format) {
			break
		}
		switch format[i] {
		case '%':
			out = append(out, verb{verb: '%', argIndex: -1})
		case '[':
			return nil, false
		default:
			out = append(out, verb{verb: rune(format[i]), argIndex: arg})
			arg++
		}
	}
	return out, true
}

// stringConstant evaluates expr to its constant string value when possible.
func stringConstant(pass *Pass, expr ast.Expr) (string, bool) {
	tv, ok := pass.Pkg.Info.Types[expr]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}

// isPkgCall reports whether call is pkg.name(...) for a stdlib package.
func isPkgCall(pass *Pass, call *ast.CallExpr, pkgPath, name string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	fn, ok := pass.Pkg.Info.Uses[sel.Sel].(*types.Func)
	return ok && fn.Pkg() != nil && fn.Pkg().Path() == pkgPath
}

func isMapType(t types.Type) bool {
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// errorIface is the universe error interface, for Implements checks.
var errorIface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

func isErrorType(t types.Type) bool {
	return types.Implements(t, errorIface)
}
