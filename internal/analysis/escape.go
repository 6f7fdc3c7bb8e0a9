// The compiler-backed half of the hotpath gate (`holint -escape`).
// Static analysis cannot decide what allocates — escape analysis can,
// and the compiler already runs it — so instead of approximating, this
// runner shells out to `go build -gcflags=-m=1`, parses the compiler's
// own escape diagnostics, and fails on any heap escape, heap move, or
// closure allocation whose position falls inside a function annotated
// //holint:hotpath. The build is cache-friendly: the gc toolchain
// replays -m diagnostics from the build cache, so a clean re-run costs
// a cache probe, not a recompile.
//
// Two subtleties the runner handles:
//
//   - Generic functions (the live replica core) produce escape
//     diagnostics only when an instantiating package compiles, and the
//     positions map back to the generic source. The runner therefore
//     compiles every matched package and matches positions globally,
//     deduplicating the repeats from multiple instantiations.
//
//   - `go build` writes main-package binaries to the current
//     directory. Non-main packages build with no -o; main packages
//     build with -o pointed at a throwaway directory.
//
// Findings are ordinary holint diagnostics (analyzer "hotpath"), so
// `//holint:allow hotpath <reason>` suppresses one with the usual
// mandatory-reason discipline.

package analysis

import (
	"bytes"
	"fmt"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
)

// hotpathRange is one annotated function's source extent.
type hotpathRange struct {
	file       string // absolute path
	start, end int    // line range, inclusive
	name       string // function name, for messages
}

// CheckEscapes runs the compiler escape gate over the module packages
// matched by patterns (from dir; empty dir means the current
// directory). It returns the surviving diagnostics — compiler-reported
// escapes inside //holint:hotpath functions, after suppression — plus
// any malformed-directive findings, exactly like Run.
func CheckEscapes(dir string, patterns ...string) ([]Diagnostic, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	prog, err := Load(dir, patterns...)
	if err != nil {
		return nil, err
	}

	var ranges []hotpathRange
	for _, pkg := range prog.Pkgs {
		fns, _ := hotpathFuncs(pkg) // misplaced directives are the static analyzer's findings
		for _, fd := range fns {
			start := prog.Fset.Position(fd.Pos())
			end := prog.Fset.Position(fd.End())
			ranges = append(ranges, hotpathRange{
				file:  start.Filename,
				start: start.Line,
				end:   end.Line,
				name:  fd.Name.Name,
			})
		}
	}
	if len(ranges) == 0 {
		return applySuppressions(prog, nil), nil
	}

	out, err := buildWithEscapeDiagnostics(dir, patterns)
	if err != nil {
		return nil, err
	}
	diags := matchEscapeDiagnostics(dir, out, ranges)
	diags = applySuppressions(prog, diags)
	sortDiagnostics(diags)
	return diags, nil
}

// buildWithEscapeDiagnostics compiles the matched packages with
// -gcflags=-m=1 and returns the combined compiler output. Main
// packages get -o into a throwaway directory so no binaries land in
// the module.
func buildWithEscapeDiagnostics(dir string, patterns []string) ([]byte, error) {
	listed, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	var mains, libs []string
	for _, lp := range listed {
		// Non-standard packages in the -deps closure are the module's own
		// (the module has no third-party deps); errored ones are already
		// skips in the Load half and cannot build.
		if lp.Standard || lp.Name == "" || lp.Error != nil {
			continue
		}
		if lp.Name == "main" {
			mains = append(mains, lp.ImportPath)
		} else {
			libs = append(libs, lp.ImportPath)
		}
	}

	var out bytes.Buffer
	build := func(extra []string, pkgs []string) error {
		if len(pkgs) == 0 {
			return nil
		}
		args := append(append([]string{"build", "-gcflags=-m=1"}, extra...), pkgs...)
		cmd := exec.Command("go", args...)
		cmd.Dir = dir
		cmd.Env = append(os.Environ(), "CGO_ENABLED=0")
		cmd.Stdout = &out
		cmd.Stderr = &out
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("go %s: %v\n%s", strings.Join(args, " "), err, out.Bytes())
		}
		return nil
	}
	if err := build(nil, libs); err != nil {
		return nil, err
	}
	if len(mains) > 0 {
		tmp, err := os.MkdirTemp("", "holint-escape-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(tmp)
		if err := build([]string{"-o", tmp}, mains); err != nil {
			return nil, err
		}
	}
	return out.Bytes(), nil
}

// escapeLineRe parses one compiler diagnostic: file:line:col: message.
var escapeLineRe = regexp.MustCompile(`^(.+\.go):(\d+):(\d+): (.*)$`)

// escapeFailure classifies the diagnostics that mean a heap
// allocation. "escapes to heap" covers values and func literals
// (closure allocation); "moved to heap" covers stack variables the
// compiler relocated. Everything else -m prints ("does not escape",
// "can inline", "leaking param", ...) is informational.
func escapeFailure(msg string) bool {
	return strings.Contains(msg, "escapes to heap") || strings.Contains(msg, "moved to heap")
}

// matchEscapeDiagnostics turns compiler output lines that land inside
// an annotated range into hotpath diagnostics, deduplicating generic
// instantiation repeats.
func matchEscapeDiagnostics(dir string, out []byte, ranges []hotpathRange) []Diagnostic {
	absDir, err := filepath.Abs(dir)
	if err != nil {
		absDir = dir
	}
	byFile := make(map[string][]hotpathRange)
	for _, r := range ranges {
		byFile[r.file] = append(byFile[r.file], r)
	}
	seen := make(map[string]bool)
	var diags []Diagnostic
	for _, line := range strings.Split(string(out), "\n") {
		m := escapeLineRe.FindStringSubmatch(line)
		if m == nil || !escapeFailure(m[4]) {
			continue
		}
		file := m[1]
		if !filepath.IsAbs(file) {
			file = filepath.Join(absDir, file)
		}
		lineNo, _ := strconv.Atoi(m[2])
		col, _ := strconv.Atoi(m[3])
		for _, r := range byFile[file] {
			if lineNo < r.start || lineNo > r.end {
				continue
			}
			key := fmt.Sprintf("%s:%d:%d:%s", file, lineNo, col, m[4])
			if seen[key] {
				break
			}
			seen[key] = true
			diags = append(diags, Diagnostic{
				Pos:      token.Position{Filename: file, Line: lineNo, Column: col},
				Analyzer: "hotpath",
				Message: fmt.Sprintf("heap allocation in //holint:hotpath function %s: %s (compiler escape analysis); keep the steady-state path allocation-free or outline the cold branch",
					r.name, m[4]),
			})
			break
		}
	}
	return diags
}
