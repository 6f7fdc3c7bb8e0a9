// errcmp enforces sentinel-error matching through errors.Is. The
// service layers deliberately wrap their sentinels (core.ErrNotDecided
// travels inside AgreedValue errors, rsm.ErrTickBudget is wrapped with
// the run's progress, the wal errors gain context on the replay path),
// so a == comparison that happens to pass today silently stops matching
// the first time a call site adds %w context.

package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ErrCmp is the sentinel-comparison analyzer.
var ErrCmp = &Analyzer{
	Name: "errcmp",
	Doc: "flags ==/!= comparisons and switch cases matching sentinel errors " +
		"(package-level error variables); errors.Is survives wrapping, == does not",
	AppliesTo: inModule,
	Run:       runErrCmp,
}

func runErrCmp(pass *Pass) {
	info := pass.Pkg.Info
	pass.inspect(func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BinaryExpr:
			if n.Op != token.EQL && n.Op != token.NEQ {
				return true
			}
			if s := sentinelErrOperand(info, n.X, n.Y); s != nil {
				pass.Reportf(n.Pos(), "%s comparison against sentinel %s breaks on wrapped errors; use errors.Is(err, %s)", n.Op, s.Name(), s.Name())
			}
		case *ast.SwitchStmt:
			if n.Tag == nil {
				return true
			}
			tv, ok := info.Types[n.Tag]
			if !ok || !isErrorType(tv.Type) {
				return true
			}
			for _, cl := range n.Body.List {
				cc, ok := cl.(*ast.CaseClause)
				if !ok {
					continue
				}
				for _, e := range cc.List {
					if s := sentinelErr(info, e); s != nil {
						pass.Reportf(e.Pos(), "switch case matches sentinel %s by ==, which breaks on wrapped errors; use errors.Is", s.Name())
					}
				}
			}
		}
		return true
	})
}

// sentinelErrOperand returns the sentinel error variable of an
// error-vs-error comparison, or nil if neither operand is one (or if
// the other side is not an error, e.g. comparing unrelated values).
func sentinelErrOperand(info *types.Info, x, y ast.Expr) *types.Var {
	for _, pair := range [2][2]ast.Expr{{x, y}, {y, x}} {
		s := sentinelErr(info, pair[0])
		if s == nil {
			continue
		}
		if tv, ok := info.Types[pair[1]]; ok && isErrorType(tv.Type) {
			return s
		}
	}
	return nil
}

// sentinelErr resolves e to a package-level error variable, or nil.
func sentinelErr(info *types.Info, e ast.Expr) *types.Var {
	v := pkgLevelVar(info, e)
	if v == nil || !isErrorType(v.Type()) {
		return nil
	}
	return v
}
