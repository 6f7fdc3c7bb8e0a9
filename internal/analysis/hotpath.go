// hotpath pins the zero-alloc property PR 2 bought with benchmarks
// (−99% allocs/op on the simulator hot loop) as a per-commit static
// gate. A function annotated
//
//	//holint:hotpath
//
// directly above its declaration is declared allocation-free on its
// steady-state path: the simtime event loop, the live envelope
// encode/decode, the wal append path. The annotation has
// two enforcement halves:
//
//   - This analyzer (always on) checks annotation hygiene — a
//     directive that does not precede a function declaration is dead
//     and gets flagged — and the allocations visible without the
//     compiler: calls into fmt and errors.New allocate on every call
//     by construction, so an annotated function must outline such cold
//     paths into unannotated helpers or use package-level sentinels.
//
//   - `holint -escape` (CI's lint job) shells out to `go build
//     -gcflags=-m` and fails on any heap escape or closure allocation
//     the compiler reports inside an annotated function — the
//     authoritative check, see escape.go.
//
// Both halves share CollectHotpaths, so an annotation the static half
// accepts is exactly one the escape gate watches.

package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// hotpathDirective marks a function as pinned allocation-free.
const hotpathDirective = "//holint:hotpath"

// HotPath is the hot-path annotation analyzer (the static half of the
// escape gate).
var HotPath = &Analyzer{
	Name: "hotpath",
	Doc: "checks //holint:hotpath annotations: placement hygiene, and no " +
		"fmt/errors.New calls inside annotated zero-alloc functions " +
		"(`holint -escape` adds the compiler-backed escape check)",
	AppliesTo: inModule,
	Run:       runHotPath,
}

func runHotPath(pass *Pass) {
	fns, misplaced := hotpathFuncs(pass.Pkg)
	for _, pos := range misplaced {
		pass.Reportf(pos, "//holint:hotpath must sit directly above a function declaration: anywhere else the annotation pins nothing and the escape gate ignores it")
	}
	for _, fd := range fns {
		checkHotpathBody(pass, fd)
	}
}

// hotpathFuncs splits a package's //holint:hotpath directives into the
// function declarations they annotate and the positions of directives
// attached to nothing.
func hotpathFuncs(pkg *Package) (fns []*ast.FuncDecl, misplaced []token.Pos) {
	for _, f := range pkg.Files {
		claimed := make(map[*ast.Comment]bool)
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			annotated := false
			for _, c := range fd.Doc.List {
				if isHotpathDirective(c.Text) {
					claimed[c] = true
					annotated = true
				}
			}
			if annotated && fd.Body != nil {
				fns = append(fns, fd)
			}
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if isHotpathDirective(c.Text) && !claimed[c] {
					misplaced = append(misplaced, c.Pos())
				}
			}
		}
	}
	return fns, misplaced
}

// isHotpathDirective matches the directive, tolerating a trailing
// comment after whitespace.
func isHotpathDirective(text string) bool {
	if !strings.HasPrefix(text, hotpathDirective) {
		return false
	}
	rest := text[len(hotpathDirective):]
	return rest == "" || rest[0] == ' ' || rest[0] == '\t'
}

// checkHotpathBody flags calls that allocate by construction inside an
// annotated function.
func checkHotpathBody(pass *Pass, fd *ast.FuncDecl) {
	info := pass.Pkg.Info
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeOf(info, call)
		if fn == nil {
			return true
		}
		switch path := funcPkgPath(fn); {
		case path == "fmt":
			pass.Reportf(call.Pos(), "fmt.%s in //holint:hotpath function %s allocates on every call: outline the cold path into an unannotated helper or use a package-level sentinel", fn.Name(), fd.Name.Name)
		case path == "errors" && fn.Name() == "New":
			pass.Reportf(call.Pos(), "errors.New in //holint:hotpath function %s allocates on every call: hoist the sentinel to a package-level var", fd.Name.Name)
		}
		return true
	})
}
