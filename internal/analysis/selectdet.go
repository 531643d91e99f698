package analysis

import (
	"go/ast"
)

// SelectDet polices select statements on result paths. When two receive
// cases are simultaneously ready, the runtime picks one uniformly at random
// — a documented scheduler coin-flip, and therefore a reproducibility leak
// if the chosen order can influence campaign bytes. The PR 9 churn work hit
// exactly this class: a rejoin racing a deadline tick.
//
// Any select with two or more receive cases in a critical package must
// carry an //aggrevet:select justification explaining why the resolution
// order is result-invariant (the cases commute, one arm only fires after a
// round is sealed, the select is off the result path entirely, ...).
// Single-receive selects — including receive+default polls and
// receive+send — resolve deterministically given the channel states and
// need no justification.
var SelectDet = &Analyzer{
	Name:      "selectdet",
	Directive: "select",
	Run:       runSelectDet,
}

func runSelectDet(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectStmt)
			if !ok {
				return true
			}
			receives := 0
			for _, clause := range sel.Body.List {
				comm, ok := clause.(*ast.CommClause)
				if !ok || comm.Comm == nil {
					continue // default case
				}
				if isReceiveComm(comm.Comm) {
					receives++
				}
			}
			if receives >= 2 {
				pass.Reportf(sel.Pos(),
					"select has %d receive cases: when several are ready the runtime picks uniformly at random; justify result-invariance with //aggrevet:select or restructure",
					receives)
			}
			return true
		})
	}
}

// isReceiveComm reports whether a select communication op is a receive
// (`<-ch`, `v := <-ch`, `v, ok := <-ch`) rather than a send.
func isReceiveComm(stmt ast.Stmt) bool {
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		_, ok := s.X.(*ast.UnaryExpr)
		return ok
	case *ast.AssignStmt:
		if len(s.Rhs) != 1 {
			return false
		}
		_, ok := s.Rhs[0].(*ast.UnaryExpr)
		return ok
	}
	return false
}
