// Package netbound proves bounds on attacker-controlled integers. Any
// integer whose taint origin is an untrusted parse site (the
// binary.BigEndian / varint family reading bytes off the wire) must be
// provably within range before it is used as a slice index, a slice
// bound, a make size, or a loop/allocation count. The pass runs the
// lintkit interval abstract interpretation over every function of the
// wire-facing packages: a dynamic guard like `if n > len(buf) { return }`
// narrows the interval on the fallthrough edge, so correctly guarded
// parsers prove themselves and need no annotations. This is the static
// generalization of the two PR 4 fuzz findings — the Reassembler
// negative-index panic and the ReadContainer allocation bomb.
package netbound

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"repro/tools/analyzers/lintkit"
)

var Analyzer = &lintkit.Analyzer{
	Name: "netbound",
	Doc: "attacker-controlled integers must carry a static bounds proof " +
		"before indexing, slicing, sizing make, or bounding a loop",
	Packages: []string{"internal/rtp", "internal/codec", "internal/transport"},
	Run:      run,
}

// maxAlloc is the largest allocation an unguarded-by-length untrusted
// size may request. It matches the tightest whole-message cap the
// protocol already enforces (the 16 MiB segment/frame limit), and the
// guards in tree use `> 1<<24`, which leaves exactly 1<<24 as the
// provable upper bound — so the comparison below is inclusive.
const maxAlloc = 1 << 24

// sourceNames is the untrusted parse family: every integer-returning
// decoder in encoding/binary that the wire parsers use. Matching by
// name alone (not receiver) covers both the BigEndian and LittleEndian
// ByteOrder methods and the package-level varint readers.
var sourceNames = map[string]bool{
	"Uint16":      true,
	"Uint32":      true,
	"Uint64":      true,
	"Uvarint":     true,
	"Varint":      true,
	"ReadUvarint": true,
	"ReadVarint":  true,
}

func isSource(fn *types.Func) bool {
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	return fn.Pkg().Path() == "encoding/binary" && sourceNames[fn.Name()]
}

type sumsKey struct{}

func summaries(prog *lintkit.Program) lintkit.IntervalSummaries {
	if prog == nil {
		return nil
	}
	return prog.Cache(sumsKey{}, func() any {
		return lintkit.BuildIntervalSummaries(prog, isSource)
	}).(lintkit.IntervalSummaries)
}

func run(pass *lintkit.Pass) error {
	sums := summaries(pass.Prog)
	lintkit.ForEachBody(pass.Files, func(n ast.Node, _ *ast.BlockStmt) {
		switch n := n.(type) {
		case *ast.FuncDecl:
			checkBody(pass, lintkit.AnalyzeFunc(pass.TypesInfo, pass.Prog, sums, isSource, n))
		case *ast.FuncLit:
			// nested literals are analyzed standalone: captured values
			// start unconstrained, which is sound for any call site
			checkBody(pass, lintkit.AnalyzeFuncLit(pass.TypesInfo, pass.Prog, sums, isSource, n))
		}
	})
	return nil
}

type finding struct {
	pos token.Pos
	msg string
}

// checkBody replays the solved analysis and reports every untrusted
// value reaching a sink without a bounds proof. Findings are collected
// and deduplicated because deferred calls appear twice in the CFG (at
// the defer statement and replayed in the exit block).
func checkBody(pass *lintkit.Pass, ia *lintkit.IntervalAnalysis) {
	seen := make(map[finding]bool)
	var found []finding
	report := func(pos token.Pos, msg string) {
		f := finding{pos, msg}
		if seen[f] {
			return
		}
		seen[f] = true
		found = append(found, f)
	}
	ia.Walk(func(b *lintkit.Block, n ast.Node, f lintkit.IntervalFact) {
		// shallow inspection: nested literals have their own solve, and
		// sub-statements of headers live in their own blocks
		var roots []ast.Node
		switch n := n.(type) {
		case *ast.RangeStmt:
			checkRangeCount(pass, ia, f, n, report)
			if n.X != nil {
				roots = append(roots, n.X)
			}
		case *ast.CaseClause:
			for _, e := range n.List {
				roots = append(roots, e)
			}
		case *ast.SelectStmt:
			// comm clauses are replayed in their own blocks
		default:
			roots = append(roots, n)
		}
		for _, root := range roots {
			ast.Inspect(root, func(m ast.Node) bool {
				switch m := m.(type) {
				case *ast.FuncLit:
					return false
				case *ast.IndexExpr:
					checkIndex(pass, ia, f, m, report)
				case *ast.SliceExpr:
					checkSlice(pass, ia, f, m, report)
				case *ast.CallExpr:
					checkMake(pass, ia, f, m, report)
				}
				return true
			})
		}
	}, func(b *lintkit.Block, e *lintkit.Edge, f lintkit.IntervalFact) {
		if e.Cond == nil || e.Negated || !ia.LoopHead(b) {
			return
		}
		checkLoopCond(pass, ia, f, e.Cond, report)
	})
	sort.Slice(found, func(i, j int) bool {
		if found[i].pos != found[j].pos {
			return found[i].pos < found[j].pos
		}
		return found[i].msg < found[j].msg
	})
	for _, f := range found {
		pass.Reportf(f.pos, "%s", f.msg)
	}
}

// checkIndex requires untrusted indices to be provably within
// [0, len(base)-1] (or inside a fixed array's bounds).
func checkIndex(pass *lintkit.Pass, ia *lintkit.IntervalAnalysis, f lintkit.IntervalFact, e *ast.IndexExpr, report func(token.Pos, string)) {
	baseType := pass.TypesInfo.TypeOf(e.X)
	if baseType == nil {
		return
	}
	var arrLen int64 = -1
	switch u := baseType.Underlying().(type) {
	case *types.Slice:
	case *types.Array:
		arrLen = u.Len()
	case *types.Pointer:
		arr, ok := u.Elem().Underlying().(*types.Array)
		if !ok {
			return
		}
		arrLen = arr.Len()
	default:
		return // map index, type param, generic instantiation
	}
	v := ia.Eval(f, e.Index)
	if !v.Untrusted {
		return
	}
	if v.Lo < 0 {
		report(e.Index.Pos(), "untrusted index may be negative — prove it with a guard before indexing")
		return
	}
	if arrLen >= 0 {
		if v.Hi > arrLen-1 {
			report(e.Index.Pos(), "untrusted index lacks an upper-bound proof against the array length")
		}
		return
	}
	if sym, ok := lintkit.LenSymFor(pass.TypesInfo, e.X); ok {
		if v.BoundedBy(sym, -1) {
			return
		}
	}
	report(e.Index.Pos(), "untrusted index lacks a proof against len() of the indexed slice")
}

// checkSlice requires untrusted slice bounds to be provably within
// [0, len(base)].
func checkSlice(pass *lintkit.Pass, ia *lintkit.IntervalAnalysis, f lintkit.IntervalFact, e *ast.SliceExpr, report func(token.Pos, string)) {
	baseType := pass.TypesInfo.TypeOf(e.X)
	if baseType == nil {
		return
	}
	switch baseType.Underlying().(type) {
	case *types.Slice:
	case *types.Basic: // string
	default:
		return
	}
	sym, haveSym := lintkit.LenSymFor(pass.TypesInfo, e.X)
	for _, bound := range []ast.Expr{e.Low, e.High, e.Max} {
		if bound == nil {
			continue
		}
		v := ia.Eval(f, bound)
		if !v.Untrusted {
			continue
		}
		if v.Lo < 0 {
			report(bound.Pos(), "untrusted slice bound may be negative — prove it with a guard before slicing")
			continue
		}
		if haveSym && v.BoundedBy(sym, 0) {
			continue
		}
		report(bound.Pos(), "untrusted slice bound lacks a proof against len() of the sliced value")
	}
}

// checkMake requires untrusted make sizes to be non-negative and
// bounded — either by some len() the input already has, or by the
// protocol's inclusive 1<<24 allocation cap.
func checkMake(pass *lintkit.Pass, ia *lintkit.IntervalAnalysis, f lintkit.IntervalFact, call *ast.CallExpr, report func(token.Pos, string)) {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return
	}
	if b, ok := pass.TypesInfo.ObjectOf(id).(*types.Builtin); !ok || b.Name() != "make" {
		return
	}
	for _, size := range call.Args[1:] {
		v := ia.Eval(f, size)
		if !v.Untrusted {
			continue
		}
		if v.Lo < 0 {
			report(size.Pos(), "untrusted make size may be negative — prove it with a guard")
			continue
		}
		if v.Hi <= maxAlloc || v.HasSymHi() {
			continue
		}
		report(size.Pos(), "untrusted make size is unbounded — an attacker-sized allocation; cap it before allocating")
	}
}

// checkLoopCond flags loop conditions whose trip count an attacker
// controls without bound: an untrusted comparison operand with no
// finite and no symbolic upper bound.
func checkLoopCond(pass *lintkit.Pass, ia *lintkit.IntervalAnalysis, f lintkit.IntervalFact, cond ast.Expr, report func(token.Pos, string)) {
	cmp, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok {
		return
	}
	switch cmp.Op {
	case token.LSS, token.LEQ, token.GTR, token.GEQ, token.NEQ:
	default:
		return
	}
	for _, operand := range []ast.Expr{cmp.X, cmp.Y} {
		v := ia.Eval(f, operand)
		if v.Untrusted && v.Hi == lintkit.PosInf && !v.HasSymHi() {
			report(operand.Pos(), "untrusted loop bound is unbounded — an attacker-controlled trip count; cap it before looping")
		}
	}
}

// checkRangeCount flags `for range n` over an untrusted, unbounded n.
func checkRangeCount(pass *lintkit.Pass, ia *lintkit.IntervalAnalysis, f lintkit.IntervalFact, rs *ast.RangeStmt, report func(token.Pos, string)) {
	t := pass.TypesInfo.TypeOf(rs.X)
	if t == nil {
		return
	}
	b, ok := t.Underlying().(*types.Basic)
	if !ok || b.Info()&types.IsInteger == 0 {
		return
	}
	v := ia.Eval(f, rs.X)
	if v.Untrusted && v.Hi == lintkit.PosInf && !v.HasSymHi() {
		report(rs.X.Pos(), "untrusted range count is unbounded — an attacker-controlled trip count; cap it before looping")
	}
}
