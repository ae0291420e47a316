package lintkit

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"math"
)

// This file is the value-range abstract interpretation engine: an
// interval lattice over the integer locals and parameters of one
// function body, solved over the BuildCFG control-flow graph with
// widening at loop heads and refinement along branch-condition edges
// (an `if n > len(buf)` narrows n on both arms). Beyond plain constant
// intervals each value can carry *symbolic length bounds* — "v is at
// most len(buf)-1" — which is what turns a dynamic guard into a static
// proof that a slice index is in range. Bottom-up interprocedural
// summaries (per-result ranges plus taint) are built over the module
// call graph, so a helper that returns a parsed-and-capped length
// transfers its proof to every caller.
//
// Soundness caveats, deliberate and documented:
//   - int64 arithmetic saturates at the ±infinity sentinels instead of
//     modeling exact 64-bit wraparound, so a computation that overflows
//     int64 exactly at MinInt64/MaxInt64 is treated as unbounded, not
//     wrapped. Narrower types (including uint64 subtraction, the
//     classic wrap) fall back to their full type range whenever the
//     abstract result leaves it.
//   - `int` and `uint` are modeled as 64-bit, matching every platform
//     this repository targets; a 32-bit port would need the ranges
//     tightened.
//   - taint tracks the integer *results* of configured source calls,
//     not the contents of byte slices those calls read from.
//   - symbolic bounds on closure-mutated locals (the `get := func()`
//     parser idiom reslicing a captured `rest`) are created freely and
//     killed at every call that could run the closure. A goroutine
//     mutating a captured slice *between* statements is not modeled;
//     the repository's parsers are single-goroutine straight-line code,
//     and shared-state discipline is the lock passes' jurisdiction.

// Infinity sentinels for interval bounds. Arithmetic on bounds
// saturates at these values.
const (
	NegInf = math.MinInt64
	PosInf = math.MaxInt64
)

// LenSym names the length of a canonical lvalue — a chain of field
// selections rooted at a variable, like `buf` or `f.MBData` — so a
// symbolic bound "v <= len(buf)-1" survives as long as nothing
// reassigns the slice.
type LenSym struct {
	Root types.Object
	Path string // "" for the root itself, ".f.g" for field chains
}

// Value is the abstract value of one integer expression: a constant
// interval, optional symbolic length bounds, and a taint bit.
type Value struct {
	// Lo and Hi bound the mathematical value of the expression;
	// NegInf/PosInf mean unbounded.
	Lo, Hi int64
	// SymHi holds upper bounds of the form v <= len(sym)+off.
	SymHi map[LenSym]int64
	// SymLo holds lower bounds of the form v >= len(sym)+off.
	SymLo map[LenSym]int64
	// Untrusted marks values derived from a source call's results
	// (attacker-controlled network input, for the netbound pass).
	Untrusted bool
}

// Top returns the unconstrained value.
func Top() Value { return Value{Lo: NegInf, Hi: PosInf} }

// Const returns the singleton interval [k, k].
func Const(k int64) Value { return Value{Lo: k, Hi: k} }

// BoundedBy reports whether the value provably satisfies
// v <= len(sym)+off.
func (v Value) BoundedBy(sym LenSym, off int64) bool {
	got, ok := v.SymHi[sym]
	return ok && got <= off
}

// HasSymHi reports whether any symbolic upper bound is known.
func (v Value) HasSymHi() bool { return len(v.SymHi) > 0 }

func (v Value) empty() bool { return v.Lo > v.Hi }

func (v Value) equal(w Value) bool {
	if v.Lo != w.Lo || v.Hi != w.Hi || v.Untrusted != w.Untrusted {
		return false
	}
	return symEqual(v.SymHi, w.SymHi) && symEqual(v.SymLo, w.SymLo)
}

func symEqual(a, b map[LenSym]int64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, av := range a {
		if bv, ok := b[k]; !ok || av != bv {
			return false
		}
	}
	return true
}

func copySyms(m map[LenSym]int64) map[LenSym]int64 {
	if len(m) == 0 {
		return nil
	}
	out := make(map[LenSym]int64, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// join is the lattice union: the weaker of each bound survives.
func (v Value) join(w Value) Value {
	out := Value{
		Lo:        min(v.Lo, w.Lo),
		Hi:        max(v.Hi, w.Hi),
		Untrusted: v.Untrusted || w.Untrusted,
	}
	for sym, off := range v.SymHi {
		if woff, ok := w.SymHi[sym]; ok {
			if out.SymHi == nil {
				out.SymHi = make(map[LenSym]int64)
			}
			out.SymHi[sym] = max(off, woff)
		}
	}
	for sym, off := range v.SymLo {
		if woff, ok := w.SymLo[sym]; ok {
			if out.SymLo == nil {
				out.SymLo = make(map[LenSym]int64)
			}
			out.SymLo[sym] = min(off, woff)
		}
	}
	return out
}

// intersect strengthens v with everything w proves (meet). Taint
// survives only when both derivations are untrusted — this is how an
// equality test against a trusted value blesses a parsed field.
func (v Value) intersect(w Value) Value {
	out := Value{
		Lo:        max(v.Lo, w.Lo),
		Hi:        min(v.Hi, w.Hi),
		Untrusted: v.Untrusted && w.Untrusted,
		SymHi:     copySyms(v.SymHi),
		SymLo:     copySyms(v.SymLo),
	}
	for sym, off := range w.SymHi {
		if cur, ok := out.SymHi[sym]; !ok || off < cur {
			if out.SymHi == nil {
				out.SymHi = make(map[LenSym]int64)
			}
			out.SymHi[sym] = off
		}
	}
	for sym, off := range w.SymLo {
		if cur, ok := out.SymLo[sym]; !ok || off > cur {
			if out.SymLo == nil {
				out.SymLo = make(map[LenSym]int64)
			}
			out.SymLo[sym] = off
		}
	}
	return out
}

// widen accelerates convergence at loop heads: any bound the last
// iteration loosened jumps to the 0 threshold or to infinity, and any
// symbolic bound that grew is dropped. Bounds therefore change at most
// a constant number of times per variable, which terminates the solve.
func (v Value) widen(joined Value) Value {
	out := joined
	if joined.Lo < v.Lo {
		if joined.Lo >= 0 {
			out.Lo = 0
		} else {
			out.Lo = NegInf
		}
	}
	if joined.Hi > v.Hi {
		out.Hi = PosInf
	}
	out.SymHi = stableSyms(v.SymHi, joined.SymHi)
	out.SymLo = stableSyms(v.SymLo, joined.SymLo)
	return out
}

// stableSyms keeps only the bounds that did not move between
// iterations.
func stableSyms(old, joined map[LenSym]int64) map[LenSym]int64 {
	var out map[LenSym]int64
	for sym, off := range joined {
		if ooff, ok := old[sym]; ok && ooff == off {
			if out == nil {
				out = make(map[LenSym]int64)
			}
			out[sym] = off
		}
	}
	return out
}

// Saturating bound arithmetic. The callers never mix +inf and -inf on
// one bound (lows add to lows, highs to highs).

func satAdd(a, b int64) int64 {
	switch {
	case a == PosInf || b == PosInf:
		return PosInf
	case a == NegInf || b == NegInf:
		return NegInf
	}
	s := a + b
	if (b > 0 && s < a) || (b < 0 && s > a) {
		if b > 0 {
			return PosInf
		}
		return NegInf
	}
	return s
}

func satNeg(a int64) int64 {
	switch a {
	case NegInf:
		return PosInf
	case PosInf:
		return NegInf
	}
	return -a
}

func satMul(a, b int64) int64 {
	if a == 0 || b == 0 {
		return 0
	}
	if a == PosInf || a == NegInf || b == PosInf || b == NegInf {
		if (a > 0) == (b > 0) {
			return PosInf
		}
		return NegInf
	}
	p := a * b
	if p/b != a {
		if (a > 0) == (b > 0) {
			return PosInf
		}
		return NegInf
	}
	return p
}

// floorDiv and ceilDiv round toward -inf / +inf (Go's / truncates
// toward zero), for dividing inequality bounds by a positive
// coefficient.
func floorDiv(a, b int64) int64 {
	q := a / b
	if (a%b != 0) && ((a < 0) != (b < 0)) {
		q--
	}
	return q
}

func ceilDiv(a, b int64) int64 {
	q := a / b
	if (a%b != 0) && ((a < 0) == (b < 0)) {
		q++
	}
	return q
}

// IntervalFact maps each tracked integer variable to its abstract
// value. A variable absent from the fact is unconstrained.
type IntervalFact map[types.Object]Value

func (f IntervalFact) clone() IntervalFact {
	out := make(IntervalFact, len(f))
	for obj, v := range f {
		v.SymHi = copySyms(v.SymHi)
		v.SymLo = copySyms(v.SymLo)
		out[obj] = v
	}
	return out
}

func (f IntervalFact) equal(g IntervalFact) bool {
	if len(f) != len(g) {
		return false
	}
	for obj, v := range f {
		w, ok := g[obj]
		if !ok || !v.equal(w) {
			return false
		}
	}
	return true
}

// SourcePredicate classifies functions whose integer results are
// untrusted input (for netbound: the binary.* parse family).
type SourcePredicate func(*types.Func) bool

// IntervalSummaries are the bottom-up per-function summaries: one
// Value per declared result (symbolic bounds stripped — they name
// callee locals — but interval and taint intact).
type IntervalSummaries map[*types.Func][]Value

// litModel is the effect model of a function literal bound to a local
// variable (the `get := func() ...` parser-closure idiom): results to
// substitute at call sites plus the captured objects the body mutates.
type litModel struct {
	results []Value
	kills   []types.Object
}

// IntervalAnalysis is the solved interval analysis of one function
// body: the CFG plus the fact holding at entry to every block.
type IntervalAnalysis struct {
	CFG  *CFG
	info *types.Info
	prog *Program
	sums IntervalSummaries
	src  SourcePredicate

	in      map[*Block]IntervalFact
	heads   map[*Block]bool
	excl    map[types.Object]bool // address-taken / closure-assigned ints: never tracked
	mutRoot map[types.Object]bool // sym roots some closure reassigns
	lits    map[types.Object]*litModel
}

// AnalyzeFunc solves the interval analysis of a declared function.
// sums may be nil (no interprocedural knowledge); src may be nil (no
// taint sources).
func AnalyzeFunc(info *types.Info, prog *Program, sums IntervalSummaries, src SourcePredicate, decl *ast.FuncDecl) *IntervalAnalysis {
	return analyzeBody(info, prog, sums, src, decl.Recv, decl.Type, decl.Body)
}

// AnalyzeFuncLit solves the interval analysis of a function literal
// body in isolation: captured variables start unconstrained, which is
// sound for any calling context.
func AnalyzeFuncLit(info *types.Info, prog *Program, sums IntervalSummaries, src SourcePredicate, lit *ast.FuncLit) *IntervalAnalysis {
	return analyzeBody(info, prog, sums, src, nil, lit.Type, lit.Body)
}

func analyzeBody(info *types.Info, prog *Program, sums IntervalSummaries, src SourcePredicate, recv *ast.FieldList, ftype *ast.FuncType, body *ast.BlockStmt) *IntervalAnalysis {
	a := &IntervalAnalysis{
		CFG:  BuildCFG(body),
		info: info,
		prog: prog,
		sums: sums,
		src:  src,
		in:   make(map[*Block]IntervalFact),
	}
	a.prescan(body)
	a.heads = loopHeads(a.CFG)
	entry := make(IntervalFact)
	seed := func(fields *ast.FieldList, zero bool) {
		if fields == nil {
			return
		}
		for _, field := range fields.List {
			for _, name := range field.Names {
				obj := info.Defs[name]
				if obj == nil || !isInteger(obj.Type()) || a.excl[obj] {
					continue
				}
				if zero {
					entry[obj] = Const(0) // named results start at their zero value
				} else {
					entry[obj] = typeRange(obj.Type())
				}
			}
		}
	}
	seed(recv, false)
	seed(ftype.Params, false)
	seed(ftype.Results, true)
	a.in[a.CFG.Entry] = entry
	a.solve()
	return a
}

// prescan walks the body once for the facts the transfer function
// needs up front: which integers have their address taken or are
// assigned inside a closure (never tracked), which sym roots a closure
// mutates (killed at opaque call sites), and the result/kill models of
// locals bound to function literals.
func (a *IntervalAnalysis) prescan(body *ast.BlockStmt) {
	a.excl = make(map[types.Object]bool)
	a.mutRoot = make(map[types.Object]bool)
	a.lits = make(map[types.Object]*litModel)
	var litAssigned func(lit *ast.FuncLit)
	litAssigned = func(lit *ast.FuncLit) {
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			var targets []ast.Expr
			switch n := n.(type) {
			case *ast.AssignStmt:
				targets = n.Lhs
			case *ast.IncDecStmt:
				targets = []ast.Expr{n.X}
			}
			for _, lhs := range targets {
				id, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok {
					continue
				}
				obj := a.info.ObjectOf(id)
				if obj == nil || obj.Pos() >= lit.Pos() && obj.Pos() <= lit.End() {
					continue // declared inside the literal
				}
				if isInteger(obj.Type()) {
					a.excl[obj] = true
				} else {
					a.mutRoot[obj] = true
				}
			}
			return true
		})
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if sym, ok := LenSymFor(a.info, n.X); ok {
					if isInteger(sym.Root.Type()) {
						a.excl[sym.Root] = true
					} else {
						a.mutRoot[sym.Root] = true
					}
				}
			}
		case *ast.FuncLit:
			litAssigned(n)
		case *ast.AssignStmt:
			if len(n.Lhs) == 1 && len(n.Rhs) == 1 {
				if lit, ok := n.Rhs[0].(*ast.FuncLit); ok {
					if id, ok := n.Lhs[0].(*ast.Ident); ok {
						if obj := a.info.ObjectOf(id); obj != nil {
							a.lits[obj] = a.modelLit(lit)
						}
					}
				}
			}
		}
		return true
	})
}

// modelLit builds the call-site model of a function literal: integer
// results are untrusted full type ranges when the body reaches a
// source (directly or through a summarized callee with an untrusted
// result), and calls kill the captured objects the body assigns.
func (a *IntervalAnalysis) modelLit(lit *ast.FuncLit) *litModel {
	m := &litModel{}
	tainted := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := FuncForCall(a.info, call)
		if fn == nil {
			return true
		}
		if a.src != nil && a.src(fn) {
			tainted = true
		}
		for _, rv := range a.sums[fn] {
			if rv.Untrusted {
				tainted = true
			}
		}
		return true
	})
	sig, ok := a.info.Types[lit].Type.(*types.Signature)
	if !ok {
		return m
	}
	for i := 0; i < sig.Results().Len(); i++ {
		t := sig.Results().At(i).Type()
		v := typeRange(t)
		v.Untrusted = tainted && isInteger(t)
		m.results = append(m.results, v)
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		var targets []ast.Expr
		switch n := n.(type) {
		case *ast.AssignStmt:
			targets = n.Lhs
		case *ast.IncDecStmt:
			targets = []ast.Expr{n.X}
		}
		for _, lhs := range targets {
			if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
				if obj := a.info.ObjectOf(id); obj != nil && !(obj.Pos() >= lit.Pos() && obj.Pos() <= lit.End()) {
					m.kills = append(m.kills, obj)
				}
			}
		}
		return true
	})
	return m
}

// loopHeads marks the targets of DFS back edges — the blocks where the
// solver widens instead of joining.
func loopHeads(cfg *CFG) map[*Block]bool {
	heads := make(map[*Block]bool)
	state := make(map[*Block]int) // 0 unvisited, 1 on stack, 2 done
	type frame struct {
		b *Block
		i int
	}
	stack := []frame{{cfg.Entry, 0}}
	state[cfg.Entry] = 1
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.i < len(f.b.Succs) {
			next := f.b.Succs[f.i].To
			f.i++
			switch state[next] {
			case 0:
				state[next] = 1
				stack = append(stack, frame{next, 0})
			case 1:
				heads[next] = true
			}
			continue
		}
		state[f.b] = 2
		stack = stack[:len(stack)-1]
	}
	return heads
}

// solve runs the widening worklist to a fixpoint over block-entry
// facts. The iteration cap is a safety net for irreducible graphs the
// back-edge heuristic might miss; the repository's CFGs converge in a
// handful of passes.
func (a *IntervalAnalysis) solve() {
	order := reversePostorder(a.CFG)
	pending := map[*Block]bool{a.CFG.Entry: true}
	visits := make(map[*Block]int)
	for iter := 0; iter < 100*len(a.CFG.Blocks)+100; iter++ {
		var b *Block
		for _, cand := range order {
			if pending[cand] {
				b = cand
				break
			}
		}
		if b == nil {
			return
		}
		delete(pending, b)
		fact := a.in[b].clone()
		for _, n := range b.Nodes {
			a.transfer(fact, n)
		}
		for _, e := range b.Succs {
			out := fact
			if e.Cond != nil {
				out = fact.clone()
				if !a.refine(out, e.Cond, !e.Negated) {
					continue // branch provably infeasible
				}
			}
			cur, seen := a.in[e.To]
			var next IntervalFact
			if !seen {
				next = out.clone()
			} else {
				next = joinFacts(cur, out)
				visits[e.To]++
				if a.heads[e.To] && visits[e.To] > 2 {
					next = widenFacts(cur, next)
				}
				if next.equal(cur) {
					continue
				}
			}
			a.in[e.To] = next
			pending[e.To] = true
		}
	}
}

func reversePostorder(cfg *CFG) []*Block {
	var order []*Block
	seen := make(map[*Block]bool)
	type frame struct {
		b *Block
		i int
	}
	stack := []frame{{cfg.Entry, 0}}
	seen[cfg.Entry] = true
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.i < len(f.b.Succs) {
			next := f.b.Succs[f.i].To
			f.i++
			if !seen[next] {
				seen[next] = true
				stack = append(stack, frame{next, 0})
			}
			continue
		}
		order = append(order, f.b)
		stack = stack[:len(stack)-1]
	}
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	return order
}

func joinFacts(f, g IntervalFact) IntervalFact {
	out := make(IntervalFact)
	for obj, v := range f {
		if w, ok := g[obj]; ok {
			out[obj] = v.join(w)
		}
		// absent in g means unconstrained there: the join is top, so
		// the entry is dropped
	}
	return out
}

func widenFacts(old, joined IntervalFact) IntervalFact {
	out := make(IntervalFact)
	for obj, jv := range joined {
		if ov, ok := old[obj]; ok {
			out[obj] = ov.widen(jv)
		} else {
			out[obj] = jv
		}
	}
	return out
}

// LoopHead reports whether b is a widening point (the header of a
// loop) — used by clients to tell loop conditions from plain guards.
func (a *IntervalAnalysis) LoopHead(b *Block) bool { return a.heads[b] }

// Walk replays every reachable block once in index order: visit
// receives each node with the fact holding immediately before it, and
// visitEdge (optional) each outgoing edge with the fact at the source
// block's end. Replay applies the same transfer the solver used, so
// the facts are the solver's fixpoint.
func (a *IntervalAnalysis) Walk(visit func(b *Block, n ast.Node, f IntervalFact), visitEdge func(b *Block, e *Edge, f IntervalFact)) {
	for _, b := range a.CFG.Blocks {
		entry, ok := a.in[b]
		if !ok {
			continue // unreachable
		}
		fact := entry.clone()
		for _, n := range b.Nodes {
			if visit != nil {
				visit(b, n, fact)
			}
			a.transfer(fact, n)
		}
		if visitEdge != nil {
			for _, e := range b.Succs {
				visitEdge(b, e, fact)
			}
		}
	}
}

// Eval returns the abstract value of e under fact f.
func (a *IntervalAnalysis) Eval(f IntervalFact, e ast.Expr) Value {
	return a.eval(f, e)
}

// ---- transfer ----

func (a *IntervalAnalysis) transfer(f IntervalFact, n ast.Node) {
	switch n := n.(type) {
	case *ast.AssignStmt:
		a.transferAssign(f, n)
	case *ast.IncDecStmt:
		a.callEffects(f, n.X)
		op := token.ADD
		if n.Tok == token.DEC {
			op = token.SUB
		}
		v := a.binop(f, op, a.eval(f, n.X), Const(1), a.info.TypeOf(n.X))
		a.assignTo(f, n.X, v)
	case *ast.DeclStmt:
		gd, ok := n.Decl.(*ast.GenDecl)
		if !ok {
			return
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			a.transferValueSpec(f, vs)
		}
	case *ast.RangeStmt:
		a.callEffects(f, n.X)
		a.transferRange(f, n)
	case *ast.ExprStmt:
		a.callEffects(f, n.X)
	case *ast.SendStmt:
		a.callEffects(f, n.Chan)
		a.callEffects(f, n.Value)
	case *ast.GoStmt:
		a.callEffects(f, n.Call)
	case *ast.DeferStmt:
		// Arguments are evaluated here; the call itself is replayed in
		// the exit block as a bare CallExpr node.
		a.callEffects(f, n.Call)
	case *ast.ReturnStmt:
		for _, r := range n.Results {
			a.callEffects(f, r)
		}
	case *ast.CaseClause:
		for _, g := range n.List {
			a.callEffects(f, g)
		}
	case *ast.IfStmt, *ast.SelectStmt:
		// headers only; conditions live on edges, clause bodies in
		// their own blocks
	case ast.Expr:
		// replayed deferred call in the exit block
		a.callEffects(f, n)
	}
}

func (a *IntervalAnalysis) transferValueSpec(f IntervalFact, vs *ast.ValueSpec) {
	if len(vs.Values) == 0 {
		for _, name := range vs.Names {
			obj := a.info.Defs[name]
			if obj != nil && isInteger(obj.Type()) && !a.excl[obj] {
				f[obj] = Const(0)
			}
		}
		return
	}
	if len(vs.Names) > 1 && len(vs.Values) == 1 {
		a.callEffects(f, vs.Values[0])
		vals := a.evalTuple(f, vs.Values[0], len(vs.Names))
		for i, name := range vs.Names {
			a.assignTo(f, name, vals[i])
		}
		return
	}
	for i, name := range vs.Names {
		if i >= len(vs.Values) {
			break
		}
		a.callEffects(f, vs.Values[i])
		a.assignTo(f, name, a.eval(f, vs.Values[i]))
	}
}

func (a *IntervalAnalysis) transferAssign(f IntervalFact, n *ast.AssignStmt) {
	for _, r := range n.Rhs {
		a.callEffects(f, r)
	}
	switch {
	case n.Tok == token.ASSIGN || n.Tok == token.DEFINE:
		if len(n.Lhs) > 1 && len(n.Rhs) == 1 {
			vals := a.evalTuple(f, n.Rhs[0], len(n.Lhs))
			for i, lhs := range n.Lhs {
				a.assignTo(f, lhs, vals[i])
			}
			return
		}
		// evaluate every rhs before assigning (swap semantics)
		vals := make([]Value, len(n.Rhs))
		for i, r := range n.Rhs {
			vals[i] = a.eval(f, r)
		}
		for i, lhs := range n.Lhs {
			if i < len(vals) {
				a.assignTo(f, lhs, vals[i])
			}
		}
	default: // op-assign: x += e and friends
		var op token.Token
		switch n.Tok {
		case token.ADD_ASSIGN:
			op = token.ADD
		case token.SUB_ASSIGN:
			op = token.SUB
		case token.MUL_ASSIGN:
			op = token.MUL
		case token.QUO_ASSIGN:
			op = token.QUO
		case token.REM_ASSIGN:
			op = token.REM
		case token.AND_ASSIGN:
			op = token.AND
		case token.SHR_ASSIGN:
			op = token.SHR
		case token.SHL_ASSIGN:
			op = token.SHL
		default:
			a.assignTo(f, n.Lhs[0], Top())
			return
		}
		v := a.binop(f, op, a.eval(f, n.Lhs[0]), a.eval(f, n.Rhs[0]), a.info.TypeOf(n.Lhs[0]))
		a.assignTo(f, n.Lhs[0], v)
	}
}

func (a *IntervalAnalysis) transferRange(f IntervalFact, n *ast.RangeStmt) {
	assignKey := func(v Value) {
		if n.Key != nil {
			a.assignTo(f, n.Key, v)
		}
	}
	assignVal := func() {
		if n.Value != nil {
			a.assignTo(f, n.Value, Top())
		}
	}
	t := a.info.TypeOf(n.X)
	if t == nil {
		assignKey(Top())
		assignVal()
		return
	}
	switch u := t.Underlying().(type) {
	case *types.Slice:
		key := Value{Lo: 0, Hi: PosInf}
		if sym, ok := LenSymFor(a.info, n.X); ok {
			key.SymHi = map[LenSym]int64{sym: -1}
		}
		assignKey(key)
		assignVal()
	case *types.Array:
		assignKey(Value{Lo: 0, Hi: u.Len() - 1})
		assignVal()
	case *types.Pointer:
		if arr, ok := u.Elem().Underlying().(*types.Array); ok {
			assignKey(Value{Lo: 0, Hi: arr.Len() - 1})
		} else {
			assignKey(Value{Lo: 0, Hi: PosInf})
		}
		assignVal()
	case *types.Basic:
		switch {
		case u.Info()&types.IsString != 0:
			key := Value{Lo: 0, Hi: PosInf}
			if sym, ok := LenSymFor(a.info, n.X); ok {
				key.SymHi = map[LenSym]int64{sym: -1}
			}
			assignKey(key)
			assignVal()
		case u.Info()&types.IsInteger != 0:
			// range over int: the key sweeps [0, X-1] and inherits the
			// limit's taint — an attacker-sized count yields
			// attacker-reachable key values.
			limit := a.eval(f, n.X)
			key := Value{Lo: 0, Hi: satAdd(limit.Hi, -1), Untrusted: limit.Untrusted}
			if len(limit.SymHi) > 0 {
				key.SymHi = make(map[LenSym]int64, len(limit.SymHi))
				for sym, off := range limit.SymHi {
					key.SymHi[sym] = off - 1
				}
			}
			assignKey(key)
		default:
			assignKey(Top())
			assignVal()
		}
	default: // map, chan, func iterators
		assignKey(Top())
		assignVal()
	}
}

// assignTo writes v into the target of an assignment, invalidating
// whatever symbolic bounds the store may break.
func (a *IntervalAnalysis) assignTo(f IntervalFact, lhs ast.Expr, v Value) {
	switch lhs := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		if lhs.Name == "_" {
			return
		}
		obj := a.info.ObjectOf(lhs)
		if obj == nil {
			return
		}
		a.killSymsRootedAt(f, obj)
		if isInteger(obj.Type()) && !a.excl[obj] {
			f[obj] = clampToType(v, obj.Type())
		} else {
			delete(f, obj)
		}
	case *ast.SelectorExpr:
		if sym, ok := LenSymFor(a.info, lhs); ok {
			a.killSymsRootedAt(f, sym.Root)
		} else {
			a.killAllSyms(f)
		}
	case *ast.IndexExpr:
		// element store: lengths are unchanged
	case *ast.StarExpr:
		// *p = v may alias any slice the body sees
		a.killAllSyms(f)
	default:
		a.killAllSyms(f)
	}
}

func (a *IntervalAnalysis) killSymsRootedAt(f IntervalFact, root types.Object) {
	for obj, v := range f {
		changed := false
		for sym := range v.SymHi {
			if sym.Root == root {
				if !changed {
					v.SymHi = copySyms(v.SymHi)
					changed = true
				}
				delete(v.SymHi, sym)
			}
		}
		for sym := range v.SymLo {
			if sym.Root == root {
				if !changed || v.SymLo == nil {
					v.SymLo = copySyms(v.SymLo)
				}
				delete(v.SymLo, sym)
				changed = true
			}
		}
		if changed {
			f[obj] = v
		}
	}
}

func (a *IntervalAnalysis) killAllSyms(f IntervalFact) {
	for obj, v := range f {
		if len(v.SymHi) > 0 || len(v.SymLo) > 0 {
			v.SymHi = nil
			v.SymLo = nil
			f[obj] = v
		}
	}
}

// callEffects applies the side effects of every call inside e (without
// descending into nested function literals): closure calls kill the
// bounds on whatever the closure reassigns, and passing a slice's
// address or a function value makes the analysis forget the related
// symbolic lengths.
func (a *IntervalAnalysis) callEffects(f IntervalFact, e ast.Expr) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if tv, ok := a.info.Types[call.Fun]; ok && tv.IsType() {
			return true // conversion
		}
		fn := FuncForCall(a.info, call)
		if fn == nil {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
				if obj := a.info.ObjectOf(id); obj != nil {
					if _, isBuiltin := obj.(*types.Builtin); !isBuiltin {
						if m := a.lits[obj]; m != nil {
							for _, k := range m.kills {
								a.killSymsRootedAt(f, k)
								delete(f, k)
							}
						} else {
							// unknown function value: any closure-
							// mutated root may change
							for root := range a.mutRoot {
								a.killSymsRootedAt(f, root)
							}
						}
					}
				}
			} else {
				for root := range a.mutRoot {
					a.killSymsRootedAt(f, root)
				}
			}
		} else if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			// a method may mutate its receiver's slice fields
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
				if sym, ok := LenSymFor(a.info, sel.X); ok {
					a.killSymsRootedAt(f, sym.Root)
				}
			}
		}
		for _, arg := range call.Args {
			if u, ok := ast.Unparen(arg).(*ast.UnaryExpr); ok && u.Op == token.AND {
				if sym, ok := LenSymFor(a.info, u.X); ok {
					a.killSymsRootedAt(f, sym.Root)
					delete(f, sym.Root)
				}
			}
			if t := a.info.TypeOf(arg); t != nil {
				if _, isFunc := t.Underlying().(*types.Signature); isFunc {
					for root := range a.mutRoot {
						a.killSymsRootedAt(f, root)
					}
				}
			}
		}
		return true
	})
}

// ---- evaluation ----

func (a *IntervalAnalysis) eval(f IntervalFact, e ast.Expr) Value {
	e = ast.Unparen(e)
	t := a.info.TypeOf(e)
	// constant folding covers literals, consts, and constant arithmetic
	if tv, ok := a.info.Types[e]; ok && tv.Value != nil {
		if tv.Value.Kind() == constant.Int {
			if k, exact := constant.Int64Val(tv.Value); exact {
				return Const(k)
			}
			if u, exact := constant.Uint64Val(tv.Value); exact {
				if u > math.MaxInt64 {
					return Value{Lo: NegInf, Hi: PosInf}
				}
				return Const(int64(u))
			}
		}
		return topOf(t)
	}
	switch e := e.(type) {
	case *ast.Ident:
		if obj := a.info.ObjectOf(e); obj != nil {
			if v, ok := f[obj]; ok {
				return v
			}
			return topOf(obj.Type())
		}
	case *ast.BinaryExpr:
		return a.binop(f, e.Op, a.eval(f, e.X), a.eval(f, e.Y), t)
	case *ast.UnaryExpr:
		switch e.Op {
		case token.ADD:
			return a.eval(f, e.X)
		case token.SUB:
			return clampToType(negValue(a.eval(f, e.X)), t)
		}
	case *ast.CallExpr:
		return a.evalCall(f, e, 1)[0]
	}
	return topOf(t)
}

// evalTuple evaluates a multi-value expression (a call or comma-ok
// form) into want abstract values.
func (a *IntervalAnalysis) evalTuple(f IntervalFact, e ast.Expr, want int) []Value {
	if call, ok := ast.Unparen(e).(*ast.CallExpr); ok {
		vals := a.evalCall(f, call, want)
		if len(vals) == want {
			return vals
		}
	}
	out := make([]Value, want)
	for i := range out {
		out[i] = Top()
	}
	if want >= 1 {
		out[0] = a.eval(f, e) // comma-ok: first value may still fold
	}
	return out
}

// evalCall models a call's results: conversions, len/cap/min/max, the
// varint decoders, configured sources, closure models, and bottom-up
// summaries, in that order of specificity.
func (a *IntervalAnalysis) evalCall(f IntervalFact, call *ast.CallExpr, want int) []Value {
	tops := func() []Value {
		out := make([]Value, want)
		t := a.info.TypeOf(call)
		if tup, ok := t.(*types.Tuple); ok {
			for i := range out {
				if i < tup.Len() {
					out[i] = topOf(tup.At(i).Type())
				} else {
					out[i] = Top()
				}
			}
			return out
		}
		for i := range out {
			out[i] = Top()
		}
		if want >= 1 {
			out[0] = topOf(t)
		}
		return out
	}
	// conversion: value-preserving when the operand provably fits
	if tv, ok := a.info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		out := tops()
		out[0] = convert(a.eval(f, call.Args[0]), a.info.TypeOf(call))
		return out
	}
	// builtins
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := a.info.ObjectOf(id).(*types.Builtin); ok {
			out := tops()
			switch b.Name() {
			case "len":
				out[0] = a.lenValue(f, call.Args[0])
			case "cap":
				if arr := arrayTypeOf(a.info.TypeOf(call.Args[0])); arr != nil {
					out[0] = Const(arr.Len())
				} else {
					out[0] = Value{Lo: 0, Hi: PosInf}
				}
			case "min":
				v := a.eval(f, call.Args[0])
				for _, arg := range call.Args[1:] {
					w := a.eval(f, arg)
					vv := Value{
						Lo:        min(v.Lo, w.Lo),
						Hi:        min(v.Hi, w.Hi),
						Untrusted: v.Untrusted || w.Untrusted,
						SymHi:     copySyms(v.SymHi),
					}
					for sym, off := range w.SymHi {
						if cur, ok := vv.SymHi[sym]; !ok || off < cur {
							if vv.SymHi == nil {
								vv.SymHi = make(map[LenSym]int64)
							}
							vv.SymHi[sym] = off
						}
					}
					v = vv
				}
				out[0] = v
			case "max":
				v := a.eval(f, call.Args[0])
				for _, arg := range call.Args[1:] {
					w := a.eval(f, arg)
					v = Value{
						Lo:        max(v.Lo, w.Lo),
						Hi:        max(v.Hi, w.Hi),
						Untrusted: v.Untrusted || w.Untrusted,
					}
				}
				out[0] = v
			}
			return out
		}
	}
	fn := FuncForCall(a.info, call)
	if fn == nil {
		// closure bound to a local?
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
			if obj := a.info.ObjectOf(id); obj != nil {
				if m := a.lits[obj]; m != nil && len(m.results) >= want {
					out := make([]Value, want)
					for i := range out {
						v := m.results[i]
						v.SymHi = copySyms(v.SymHi)
						v.SymLo = copySyms(v.SymLo)
						out[i] = v
					}
					return out
				}
			}
		}
		return tops()
	}
	out := tops()
	tainted := a.src != nil && a.src(fn)
	// binary.Uvarint/Varint return (value, bytesRead) with the byte
	// count bounded by the input length — the idiom `rest = rest[n:]`
	// depends on that second result being in range.
	if fn.Pkg() != nil && fn.Pkg().Path() == "encoding/binary" && (fn.Name() == "Uvarint" || fn.Name() == "Varint") && len(call.Args) == 1 {
		if want >= 2 {
			n := Value{Lo: -11, Hi: 11}
			if sym, ok := LenSymFor(a.info, call.Args[0]); ok {
				n.SymHi = map[LenSym]int64{sym: 0}
			}
			out[1] = n
		}
		if tainted {
			out[0].Untrusted = true
		}
		return out
	}
	if tainted {
		// mark integer results untrusted at their full type range
		if tup, ok := a.info.TypeOf(call).(*types.Tuple); ok {
			for i := range out {
				if i < tup.Len() && isInteger(tup.At(i).Type()) {
					out[i].Untrusted = true
				}
			}
		} else if want >= 1 && isInteger(a.info.TypeOf(call)) {
			out[0].Untrusted = true
		}
		return out
	}
	if sum, ok := a.sums[fn]; ok {
		for i := 0; i < want && i < len(sum); i++ {
			v := sum[i]
			v.SymHi = copySyms(v.SymHi)
			v.SymLo = copySyms(v.SymLo)
			out[i] = v
		}
		return out
	}
	return out
}

// lenValue is the abstract value of len(arg).
func (a *IntervalAnalysis) lenValue(f IntervalFact, arg ast.Expr) Value {
	if arr := arrayTypeOf(a.info.TypeOf(arg)); arr != nil {
		return Const(arr.Len())
	}
	v := Value{Lo: 0, Hi: PosInf}
	if sym, ok := LenSymFor(a.info, arg); ok {
		v.SymHi = map[LenSym]int64{sym: 0}
		v.SymLo = map[LenSym]int64{sym: 0}
	}
	return v
}

func arrayTypeOf(t types.Type) *types.Array {
	if t == nil {
		return nil
	}
	switch u := t.Underlying().(type) {
	case *types.Array:
		return u
	case *types.Pointer:
		arr, _ := u.Elem().Underlying().(*types.Array)
		return arr
	}
	return nil
}

// binop evaluates x op y and clamps the result to the expression's
// static type (falling back to the full type range models wraparound).
func (a *IntervalAnalysis) binop(f IntervalFact, op token.Token, x, y Value, t types.Type) Value {
	taint := x.Untrusted || y.Untrusted
	var v Value
	switch op {
	case token.ADD:
		v = Value{Lo: satAdd(x.Lo, y.Lo), Hi: satAdd(x.Hi, y.Hi)}
		// x <= len(s)+o and y <= h  =>  x+y <= len(s)+o+h
		for sym, off := range x.SymHi {
			if y.Hi != PosInf {
				addSymHi(&v, sym, satAdd(off, y.Hi))
			}
		}
		for sym, off := range y.SymHi {
			if x.Hi != PosInf {
				addSymHi(&v, sym, satAdd(off, x.Hi))
			}
		}
		for sym, off := range x.SymLo {
			if y.Lo != NegInf {
				addSymLo(&v, sym, satAdd(off, y.Lo))
			}
		}
		for sym, off := range y.SymLo {
			if x.Lo != NegInf {
				addSymLo(&v, sym, satAdd(off, x.Lo))
			}
		}
	case token.SUB:
		v = Value{Lo: satAdd(x.Lo, satNeg(y.Hi)), Hi: satAdd(x.Hi, satNeg(y.Lo))}
		// x <= len(s)+o and y >= l  =>  x-y <= len(s)+o-l
		for sym, off := range x.SymHi {
			if y.Lo != NegInf {
				addSymHi(&v, sym, satAdd(off, satNeg(y.Lo)))
			}
		}
		for sym, off := range x.SymLo {
			if y.Hi != PosInf {
				addSymLo(&v, sym, satAdd(off, satNeg(y.Hi)))
			}
		}
	case token.MUL:
		v = intervalMul(x, y)
	case token.QUO:
		v = intervalDiv(x, y)
	case token.REM:
		v = intervalRem(x, y)
	case token.AND:
		if x.Lo >= 0 && y.Lo >= 0 {
			v = Value{Lo: 0, Hi: min(x.Hi, y.Hi)}
		} else {
			v = topOf(t)
		}
	case token.OR, token.XOR:
		if x.Lo >= 0 && y.Lo >= 0 && x.Hi != PosInf && y.Hi != PosInf {
			v = Value{Lo: 0, Hi: orCeil(max(x.Hi, y.Hi))}
		} else {
			v = topOf(t)
		}
	case token.SHL:
		if y.Lo == y.Hi && y.Lo >= 0 && y.Lo < 63 {
			m := int64(1) << y.Lo
			v = Value{Lo: satMul(x.Lo, m), Hi: satMul(x.Hi, m)}
		} else if x.Lo >= 0 {
			v = Value{Lo: 0, Hi: PosInf}
		} else {
			v = topOf(t)
		}
	case token.SHR:
		if x.Lo >= 0 && y.Lo >= 0 {
			hi := x.Hi
			if y.Lo > 0 && y.Lo < 63 && hi != PosInf {
				hi >>= y.Lo
			}
			v = Value{Lo: 0, Hi: hi}
			for sym, off := range x.SymHi {
				addSymHi(&v, sym, max(off, 0)) // (len+off)>>k <= len+max(off,0)
			}
		} else {
			v = topOf(t)
		}
	default:
		v = topOf(t)
	}
	v.Untrusted = taint
	return clampToType(v, t)
}

func addSymHi(v *Value, sym LenSym, off int64) {
	if cur, ok := v.SymHi[sym]; ok && cur <= off {
		return
	}
	if v.SymHi == nil {
		v.SymHi = make(map[LenSym]int64)
	}
	v.SymHi[sym] = off
}

func addSymLo(v *Value, sym LenSym, off int64) {
	if cur, ok := v.SymLo[sym]; ok && cur >= off {
		return
	}
	if v.SymLo == nil {
		v.SymLo = make(map[LenSym]int64)
	}
	v.SymLo[sym] = off
}

func intervalMul(x, y Value) Value {
	c := [4]int64{
		satMul(x.Lo, y.Lo), satMul(x.Lo, y.Hi),
		satMul(x.Hi, y.Lo), satMul(x.Hi, y.Hi),
	}
	lo, hi := c[0], c[0]
	for _, v := range c[1:] {
		lo, hi = min(lo, v), max(hi, v)
	}
	return Value{Lo: lo, Hi: hi}
}

func intervalDiv(x, y Value) Value {
	if y.Lo > 0 && y.Hi != PosInf && x.Lo != NegInf && x.Hi != PosInf {
		c := [4]int64{x.Lo / y.Lo, x.Lo / y.Hi, x.Hi / y.Lo, x.Hi / y.Hi}
		lo, hi := c[0], c[0]
		for _, v := range c[1:] {
			lo, hi = min(lo, v), max(hi, v)
		}
		return Value{Lo: lo, Hi: hi}
	}
	if y.Lo > 0 && x.Lo >= 0 {
		// positive / positive stays in [0, x.Hi]
		hi := x.Hi
		if hi != PosInf && y.Lo > 1 {
			hi /= y.Lo
		}
		return Value{Lo: 0, Hi: hi}
	}
	return Top()
}

func intervalRem(x, y Value) Value {
	if y.Lo > 0 && y.Hi != PosInf {
		if x.Lo >= 0 {
			return Value{Lo: 0, Hi: y.Hi - 1}
		}
		return Value{Lo: -(y.Hi - 1), Hi: y.Hi - 1}
	}
	return Top()
}

// orCeil returns the smallest 2^k-1 >= v, the tight upper bound of a
// bitwise or/xor of non-negatives.
func orCeil(v int64) int64 {
	if v <= 0 {
		return 0
	}
	r := int64(1)
	for r-1 < v {
		if r > math.MaxInt64/2 {
			return PosInf
		}
		r <<= 1
	}
	return r - 1
}

func negValue(v Value) Value {
	return Value{Lo: satNeg(v.Hi), Hi: satNeg(v.Lo), Untrusted: v.Untrusted}
}

// convert models a type conversion: value-preserving when the operand
// provably fits the target's range (bounds and taint survive), a full
// target range otherwise — which is exactly the int(uint16) /
// truncation trap.
func convert(v Value, to types.Type) Value {
	if !isInteger(to) {
		return Top()
	}
	r := typeRange(to)
	if !v.empty() && v.Lo >= r.Lo && v.Hi <= r.Hi {
		return v
	}
	r.Untrusted = v.Untrusted
	return r
}

// clampToType keeps v when it fits t's range and otherwise falls back
// to the full range (a computation that can leave the type wraps).
func clampToType(v Value, t types.Type) Value {
	if t == nil || !isInteger(t) {
		return v
	}
	r := typeRange(t)
	if v.empty() || (v.Lo >= r.Lo && v.Hi <= r.Hi) {
		return v
	}
	r.Untrusted = v.Untrusted
	return r
}

func isInteger(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

// typeRange returns the full range of an integer type. int, uint,
// uintptr, int64 and uint64 saturate at the sentinels.
func typeRange(t types.Type) Value {
	b, ok := t.Underlying().(*types.Basic)
	if !ok {
		return Top()
	}
	switch b.Kind() {
	case types.Int8:
		return Value{Lo: math.MinInt8, Hi: math.MaxInt8}
	case types.Int16:
		return Value{Lo: math.MinInt16, Hi: math.MaxInt16}
	case types.Int32:
		return Value{Lo: math.MinInt32, Hi: math.MaxInt32}
	case types.Uint8:
		return Value{Lo: 0, Hi: math.MaxUint8}
	case types.Uint16:
		return Value{Lo: 0, Hi: math.MaxUint16}
	case types.Uint32:
		return Value{Lo: 0, Hi: math.MaxUint32}
	case types.Uint, types.Uint64, types.Uintptr:
		return Value{Lo: 0, Hi: PosInf}
	default:
		return Top()
	}
}

func topOf(t types.Type) Value {
	if t == nil {
		return Top()
	}
	return typeRange(t)
}

// ---- guard refinement ----

// refine strengthens fact with cond being taken (or not). It returns
// false when the refined fact is contradictory — the edge is provably
// infeasible and the solver skips it.
func (a *IntervalAnalysis) refine(f IntervalFact, cond ast.Expr, taken bool) bool {
	cond = ast.Unparen(cond)
	switch c := cond.(type) {
	case *ast.UnaryExpr:
		if c.Op == token.NOT {
			return a.refine(f, c.X, !taken)
		}
	case *ast.BinaryExpr:
		switch c.Op {
		case token.LAND:
			if taken {
				return a.refine(f, c.X, true) && a.refine(f, c.Y, true)
			}
			return true // !(a && b) refines nothing by itself
		case token.LOR:
			if !taken {
				return a.refine(f, c.X, false) && a.refine(f, c.Y, false)
			}
			return true
		case token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ:
			return a.refineCompare(f, c, taken)
		}
	}
	return true
}

func negateCmp(op token.Token) token.Token {
	switch op {
	case token.EQL:
		return token.NEQ
	case token.NEQ:
		return token.EQL
	case token.LSS:
		return token.GEQ
	case token.LEQ:
		return token.GTR
	case token.GTR:
		return token.LEQ
	case token.GEQ:
		return token.LSS
	}
	return op
}

func flipCmp(op token.Token) token.Token {
	switch op {
	case token.LSS:
		return token.GTR
	case token.LEQ:
		return token.GEQ
	case token.GTR:
		return token.LSS
	case token.GEQ:
		return token.LEQ
	}
	return op
}

func (a *IntervalAnalysis) refineCompare(f IntervalFact, c *ast.BinaryExpr, taken bool) bool {
	if !isInteger(a.info.TypeOf(c.X)) || !isInteger(a.info.TypeOf(c.Y)) {
		return true
	}
	op := c.Op
	if !taken {
		op = negateCmp(op)
	}
	if op == token.NEQ {
		return true
	}
	ok1 := a.refineSide(f, c.X, op, c.Y)
	ok2 := a.refineSide(f, c.Y, flipCmp(op), c.X)
	return ok1 && ok2
}

// refineSide applies `lhs op rhs` to every variable appearing linearly
// in lhs. Strict comparisons become inclusive ones by shifting the
// bound (integers), == applies both directions and blesses taint.
func (a *IntervalAnalysis) refineSide(f IntervalFact, lhs ast.Expr, op token.Token, rhs ast.Expr) bool {
	lin, ok := a.linearize(f, lhs)
	if !ok || len(lin.terms) == 0 {
		return true
	}
	rhsVal := a.eval(f, rhs)
	switch op {
	case token.LSS:
		op = token.LEQ
		rhsVal = a.binop(f, token.SUB, rhsVal, Const(1), nil)
	case token.GTR:
		op = token.GEQ
		rhsVal = a.binop(f, token.ADD, rhsVal, Const(1), nil)
	}
	feasible := true
	for obj, coeff := range lin.terms {
		if coeff == 0 || a.excl[obj] {
			continue
		}
		rest := a.linRestValue(f, lin, obj)
		bound := a.binop(f, token.SUB, rhsVal, rest, nil)
		aCoeff := coeff
		o := op
		if aCoeff < 0 {
			aCoeff = -aCoeff
			o = flipCmp(o)
			bound = negValue(bound)
		}
		cur, seen := f[obj]
		if !seen {
			cur = topOf(obj.Type())
		}
		nv := cur
		nv.SymHi = copySyms(cur.SymHi)
		nv.SymLo = copySyms(cur.SymLo)
		applyLeq := func() {
			if bound.Hi != PosInf {
				nv.Hi = min(nv.Hi, floorDiv(bound.Hi, aCoeff))
			}
			for sym, off := range bound.SymHi {
				eff := off
				if aCoeff != 1 {
					// (len+off)/a <= len+max(off,0) for len >= 0, a >= 1
					eff = max(off, 0)
				}
				if curOff, ok := nv.SymHi[sym]; !ok || eff < curOff {
					addSymHi(&nv, sym, eff)
				}
			}
		}
		applyGeq := func() {
			if bound.Lo != NegInf {
				nv.Lo = max(nv.Lo, ceilDiv(bound.Lo, aCoeff))
			}
			if aCoeff == 1 {
				for sym, off := range bound.SymLo {
					addSymLo(&nv, sym, off)
				}
			}
		}
		switch o {
		case token.LEQ:
			applyLeq()
		case token.GEQ:
			applyGeq()
		case token.EQL:
			applyLeq()
			applyGeq()
			// equality against a fully trusted quantity blesses a
			// parsed value: `if int(n) != want { return err }`
			if len(lin.terms) == 1 && !rhsVal.Untrusted && !rest.Untrusted {
				nv.Untrusted = false
			}
		}
		if nv.empty() {
			feasible = false
		}
		f[obj] = nv
	}
	return feasible
}

// linForm is a linear decomposition sum(coeff*var) + sum(coeff*len(sym)) + k.
type linForm struct {
	terms map[types.Object]int64
	lens  map[LenSym]int64
	k     int64
}

// linearize decomposes e into linear form, peeling conversions that
// are value-preserving under the current fact (so `uint64(len(rest))`
// still yields the len term). It fails on anything non-linear.
func (a *IntervalAnalysis) linearize(f IntervalFact, e ast.Expr) (linForm, bool) {
	lin := linForm{terms: make(map[types.Object]int64), lens: make(map[LenSym]int64)}
	var add func(e ast.Expr, scale int64) bool
	add = func(e ast.Expr, scale int64) bool {
		e = ast.Unparen(e)
		if tv, ok := a.info.Types[e]; ok && tv.Value != nil && tv.Value.Kind() == constant.Int {
			if k, exact := constant.Int64Val(tv.Value); exact {
				lin.k = satAdd(lin.k, satMul(k, scale))
				return lin.k != PosInf && lin.k != NegInf
			}
			return false
		}
		switch e := e.(type) {
		case *ast.Ident:
			obj := a.info.ObjectOf(e)
			if obj == nil || !isInteger(obj.Type()) {
				return false
			}
			lin.terms[obj] += scale
			return true
		case *ast.BinaryExpr:
			switch e.Op {
			case token.ADD:
				return add(e.X, scale) && add(e.Y, scale)
			case token.SUB:
				return add(e.X, scale) && add(e.Y, -scale)
			case token.MUL:
				if k, ok := a.constInt(e.X); ok {
					return add(e.Y, satMul(scale, k))
				}
				if k, ok := a.constInt(e.Y); ok {
					return add(e.X, satMul(scale, k))
				}
				return false
			}
			return false
		case *ast.CallExpr:
			if tv, ok := a.info.Types[e.Fun]; ok && tv.IsType() && len(e.Args) == 1 {
				inner := a.eval(f, e.Args[0])
				r := typeRange(a.info.TypeOf(e))
				if !inner.empty() && inner.Lo >= r.Lo && inner.Hi <= r.Hi {
					return add(e.Args[0], scale) // value-preserving conversion
				}
				return false
			}
			if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok {
				if b, ok := a.info.ObjectOf(id).(*types.Builtin); ok && b.Name() == "len" && len(e.Args) == 1 {
					if arr := arrayTypeOf(a.info.TypeOf(e.Args[0])); arr != nil {
						lin.k = satAdd(lin.k, satMul(arr.Len(), scale))
						return true
					}
					if sym, ok := LenSymFor(a.info, e.Args[0]); ok {
						lin.lens[sym] += scale
						return true
					}
				}
			}
			return false
		}
		return false
	}
	if !add(e, 1) {
		return linForm{}, false
	}
	return lin, true
}

func (a *IntervalAnalysis) constInt(e ast.Expr) (int64, bool) {
	if tv, ok := a.info.Types[ast.Unparen(e)]; ok && tv.Value != nil && tv.Value.Kind() == constant.Int {
		if k, exact := constant.Int64Val(tv.Value); exact {
			return k, true
		}
	}
	return 0, false
}

// linRestValue evaluates lin minus the `except` term as an abstract
// value, so a*v + rest OP bound can be solved for v.
func (a *IntervalAnalysis) linRestValue(f IntervalFact, lin linForm, except types.Object) Value {
	acc := Const(lin.k)
	for obj, coeff := range lin.terms {
		if obj == except || coeff == 0 {
			continue
		}
		v, ok := f[obj]
		if !ok {
			v = topOf(obj.Type())
		}
		acc = a.binop(f, token.ADD, acc, intervalMul(v, Const(coeff)), nil)
	}
	for sym, coeff := range lin.lens {
		if coeff == 0 {
			continue
		}
		lv := Value{Lo: 0, Hi: PosInf, SymHi: map[LenSym]int64{sym: 0}, SymLo: map[LenSym]int64{sym: 0}}
		acc = a.binop(f, token.ADD, acc, intervalMul2(lv, coeff), nil)
	}
	return acc
}

// intervalMul2 scales a length value by a small constant, keeping the
// sym when the coefficient is 1.
func intervalMul2(v Value, coeff int64) Value {
	if coeff == 1 {
		return v
	}
	out := intervalMul(v, Const(coeff))
	out.Untrusted = v.Untrusted
	return out
}

// LenSymFor canonicalizes e as a length symbol: a variable, possibly
// behind a chain of field selections (`f.MBData`). Pointer
// indirections implicit in selection are allowed; anything else (calls,
// indexing) is not canonical.
func LenSymFor(info *types.Info, e ast.Expr) (LenSym, bool) {
	path := ""
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			obj := info.ObjectOf(x)
			if obj == nil {
				return LenSym{}, false
			}
			if _, isVar := obj.(*types.Var); !isVar {
				return LenSym{}, false
			}
			return LenSym{Root: obj, Path: path}, true
		case *ast.SelectorExpr:
			path = "." + x.Sel.Name + path
			e = x.X
		default:
			return LenSym{}, false
		}
	}
}

// ---- interprocedural summaries ----

// BuildIntervalSummaries computes bottom-up result summaries for every
// module-local function: the joined abstract value of each declared
// result over all return statements, with callee-local symbolic bounds
// stripped. Callers should memoize the result on the Program cache.
func BuildIntervalSummaries(prog *Program, src SourcePredicate) IntervalSummaries {
	if prog == nil {
		return make(IntervalSummaries)
	}
	// Mutual recursion iterates to a small fixpoint: at most three
	// rounds per component.
	return SolveBottomUp(prog, 3, func(_ *types.Func, fsrc *FuncSource, sums map[*types.Func][]Value) []Value {
		return summarizeFunc(prog, fsrc, sums, src)
	}, summaryEqual)
}

func summaryEqual(a, b []Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].equal(b[i]) {
			return false
		}
	}
	return true
}

func summarizeFunc(prog *Program, fsrc *FuncSource, sums IntervalSummaries, src SourcePredicate) []Value {
	decl := fsrc.Decl
	results := decl.Type.Results
	if results == nil || results.NumFields() == 0 {
		return nil
	}
	info := fsrc.Pkg.Info
	nres := 0
	var resultObjs []types.Object // nil entries for unnamed results
	for _, field := range results.List {
		if len(field.Names) == 0 {
			nres++
			resultObjs = append(resultObjs, nil)
			continue
		}
		for _, name := range field.Names {
			nres++
			resultObjs = append(resultObjs, info.Defs[name])
		}
	}
	ia := analyzeBody(info, prog, sums, src, decl.Recv, decl.Type, decl.Body)
	var joined []Value
	record := func(vals []Value) {
		if joined == nil {
			joined = vals
			return
		}
		for i := range joined {
			joined[i] = joined[i].join(vals[i])
		}
	}
	ia.Walk(func(b *Block, n ast.Node, f IntervalFact) {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return
		}
		vals := make([]Value, nres)
		switch {
		case len(ret.Results) == 0:
			// bare return: named results carry the values
			for i, obj := range resultObjs {
				if obj == nil {
					vals[i] = Top()
				} else if v, ok := f[obj]; ok {
					vals[i] = v
				} else {
					vals[i] = topOf(obj.Type())
				}
			}
		case len(ret.Results) == nres:
			for i, r := range ret.Results {
				vals[i] = ia.Eval(f, r)
			}
		case len(ret.Results) == 1 && nres > 1:
			if call, ok := ast.Unparen(ret.Results[0]).(*ast.CallExpr); ok {
				copy(vals, ia.evalCall(f, call, nres))
			} else {
				for i := range vals {
					vals[i] = Top()
				}
			}
		default:
			for i := range vals {
				vals[i] = Top()
			}
		}
		record(vals)
	}, nil)
	if joined == nil {
		return nil // no returns reached: treat as unknown
	}
	// strip callee-local symbolic bounds; clamp to the declared types
	i := 0
	for _, field := range results.List {
		n := max(len(field.Names), 1)
		for j := 0; j < n; j++ {
			joined[i].SymHi = nil
			joined[i].SymLo = nil
			joined[i] = clampToType(joined[i], info.TypeOf(field.Type))
			i++
		}
	}
	return joined
}
