// Package lintkit is a small, dependency-free analysis framework with
// the same shape as golang.org/x/tools/go/analysis: an Analyzer owns a
// Run function that inspects one type-checked package through a Pass
// and reports diagnostics. It exists because this repository builds
// offline with the standard library only; see the module go.mod for the
// porting story.
//
// Suppression: a finding is dropped when the offending line, or the
// line directly above it, carries a comment of the form
//
//	//lint:allow <name>[,<name>...] [reason]
//
// naming the analyzer (or one of its aliases). The legacy
// //nolint:errcheck marker is honoured as an alias where an analyzer
// declares it. Allowlist comments are the escape hatch for legitimate
// measurement seams; the reason text is for the human reviewer.
package lintkit

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer describes one invariant checker.
type Analyzer struct {
	// Name is the identifier used in diagnostics and //lint:allow
	// markers.
	Name string
	// Aliases are additional marker names that suppress this analyzer
	// (e.g. "errcheck" for pre-existing //nolint:errcheck comments).
	Aliases []string
	// Doc is a one-paragraph description of the guarded invariant.
	Doc string
	// Packages restricts the analyzer to packages whose import path
	// ends with one of these suffixes ("internal/vcrypt" matches
	// "repro/internal/vcrypt"). Empty means every package.
	Packages []string
	// Run inspects one package.
	Run func(*Pass) error
}

// AppliesTo reports whether the analyzer is configured to inspect the
// package with the given import path.
func (a *Analyzer) AppliesTo(importPath string) bool {
	if len(a.Packages) == 0 {
		return true
	}
	for _, pat := range a.Packages {
		if PathMatches(importPath, pat) {
			return true
		}
	}
	return false
}

// PathMatches reports whether an import path is pat or ends in "/"+pat:
// "internal/vcrypt" matches "repro/internal/vcrypt" but neither
// "repro/notinternal/vcrypt" nor "repro/internal/vcrypt/sub".
func PathMatches(path, pat string) bool {
	return path == pat || strings.HasSuffix(path, "/"+pat)
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Pass carries one type-checked package through an analyzer run.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Prog is the whole loaded program, shared across packages of one
	// run: interprocedural analyzers reach cross-package function bodies
	// and memoize their summaries through it.
	Prog *Program

	allow allowIndex
	diags *[]Diagnostic
}

// Reportf records a finding at pos unless an allow marker suppresses
// it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.allow.allows(position.Filename, position.Line, p.Analyzer) {
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      position,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// allowMarker is one suppression name parsed from a //lint:allow or
// //nolint: comment. `used` flips when the marker actually suppresses
// a finding, which is what lets StaleAllows spot suppression rot.
type allowMarker struct {
	name string
	pos  token.Position
	used bool
}

// allowIndex maps filename -> line -> markers present on that line.
type allowIndex map[string]map[int][]*allowMarker

func (ai allowIndex) allows(filename string, line int, a *Analyzer) bool {
	lines := ai[filename]
	if lines == nil {
		return false
	}
	markers := append(append([]*allowMarker(nil), lines[line]...), lines[line-1]...)
	for _, m := range markers {
		if m.name == a.Name {
			m.used = true
			return true
		}
		for _, alias := range a.Aliases {
			if m.name == alias {
				m.used = true
				return true
			}
		}
	}
	return false
}

// buildAllowIndex scans every comment of the files for suppression
// markers. Both //lint:allow and //nolint: spellings contribute names.
func buildAllowIndex(fset *token.FileSet, files []*ast.File) allowIndex {
	ai := make(allowIndex)
	add := func(pos token.Pos, names string) {
		position := fset.Position(pos)
		lines := ai[position.Filename]
		if lines == nil {
			lines = make(map[int][]*allowMarker)
			ai[position.Filename] = lines
		}
		for _, n := range strings.Split(names, ",") {
			if n = strings.TrimSpace(n); n != "" {
				lines[position.Line] = append(lines[position.Line], &allowMarker{name: n, pos: position})
			}
		}
	}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				for _, prefix := range []string{"lint:allow ", "nolint:"} {
					if rest, ok := strings.CutPrefix(text, prefix); ok {
						// Marker names end at the first space; the
						// remainder is the human-readable reason.
						names, _, _ := strings.Cut(rest, " ")
						add(c.Pos(), names)
					}
				}
			}
		}
	}
	return ai
}

// StaleAllows reports every suppression marker that names one of the
// analyzers just run yet suppressed no finding. Call it after
// RunAnalyzers/RunProgram on the same packages — usage is recorded as
// findings are filtered. Markers naming analyzers outside the run (a
// generic //nolint:errcheck aimed at other tooling, say) are left
// alone: their liveness cannot be judged here. Suppression rot is how
// lint gates die — a stale marker hides the next real finding on its
// line.
func StaleAllows(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	known := make(map[string]string) // marker name -> canonical analyzer name
	for _, a := range analyzers {
		known[a.Name] = a.Name
		for _, alias := range a.Aliases {
			known[alias] = a.Name
		}
	}
	var out []Diagnostic
	for _, pkg := range pkgs {
		for _, lines := range pkg.allow {
			for _, markers := range lines {
				for _, m := range markers {
					canonical, ok := known[m.name]
					if !ok || m.used {
						continue
					}
					out = append(out, Diagnostic{
						Pos:      m.pos,
						Analyzer: "staleallow",
						Message:  fmt.Sprintf("suppression %q matches no %s finding — remove the stale marker", m.name, canonical),
					})
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Message < b.Message
	})
	return out
}

// RunAnalyzers applies every configured analyzer to every loaded
// package and returns the combined findings sorted by position.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	return RunProgram(NewProgram(pkgs), analyzers)
}

// RunProgram is RunAnalyzers over a caller-built Program, for callers
// that want to inspect the program afterwards (cache statistics, call
// graph) or share one program across several suites.
func RunProgram(prog *Program, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	pkgs := prog.Packages
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			if !a.AppliesTo(pkg.ImportPath) {
				continue
			}
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				Prog:      prog,
				allow:     pkg.allow,
				diags:     &diags,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s on %s: %w", a.Name, pkg.ImportPath, err)
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, nil
}

// ForEachBody calls fn with every function body in files: each
// declaration's (n is the *ast.FuncDecl), then that of every function
// literal nested in it, literals inside literals included (n is the
// *ast.FuncLit), in source order. Passes that analyze each literal as
// its own body — it generally runs on another goroutine or at defer
// time — share this walk.
func ForEachBody(files []*ast.File, fn func(n ast.Node, body *ast.BlockStmt)) {
	for _, f := range files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn(fd, fd.Body)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					fn(lit, lit.Body)
				}
				return true
			})
		}
	}
}

// RecvName returns the name of the named type (or pointer to it) that
// is fn's receiver, or "" for functions and unnamed receiver types.
func RecvName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// FuncForCall resolves the *types.Func a call expression invokes, or
// nil for calls through function values, conversions and built-ins.
func FuncForCall(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// IsPkgFunc reports whether fn is the package-level function
// pkgPath.name (methods never match).
func IsPkgFunc(fn *types.Func, pkgPath, name string) bool {
	if fn == nil || fn.Pkg() == nil || fn.Name() != name || fn.Pkg().Path() != pkgPath {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() == nil
}
