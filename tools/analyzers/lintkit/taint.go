package lintkit

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// SSA-lite taint engine. Values are tracked at the granularity of the
// root variable of an lvalue chain (x, x.f, x[i] and &x all key on x),
// facts flow forward over the CFG, and function boundaries are crossed
// with bottom-up summaries over the module call graph: each function is
// summarised by (a) which of its parameters reach a sink unsanitized
// and (b) which origins its results carry. Origins are a bitset — the
// distinguished Source bit for freshly created taint plus one bit per
// parameter position — so summaries compose by substitution at call
// sites.
//
// Soundness posture (documented in DESIGN.md): joins take the union of
// origins (a value tainted on any path stays tainted), loops re-taint
// through back edges, and unknown callees (function values, interface
// methods outside the sink spec) propagate taint from arguments to
// results and to the receiver. The engine under-approximates in three
// places: it does not model taint through channels or global state, an
// unknown callee is never itself a sink unless it matches a SinkSpec,
// and a function literal called through a variable is analyzed with the
// facts at its creation point, not its call point.

// Origins is a bitset of taint origins: the Source bit marks fresh
// taint, bit i marks "flows from parameter position i" (position 0 is
// the receiver for methods; positions beyond 62 share bit 62).
type Origins uint64

// OriginSource marks taint created inside the current function.
const OriginSource Origins = 1 << 63

// ParamOrigin returns the origin bit of parameter position i.
func ParamOrigin(i int) Origins {
	if i > 62 {
		i = 62
	}
	return 1 << uint(i)
}

const paramMask = ^OriginSource

// FuncMatch names a function or method without linking against its
// package: Path matches the defining package path exactly or as a
// "/"-suffix, Recv the receiver's named type ("" for package-level
// functions), Name the identifier.
type FuncMatch struct {
	Path string
	Recv string
	Name string
}

// Matches reports whether fn is the named function.
func (m FuncMatch) Matches(fn *types.Func) bool {
	if fn == nil || fn.Name() != m.Name || fn.Pkg() == nil || !PathMatches(fn.Pkg().Path(), m.Path) {
		return false
	}
	if m.Recv == "" {
		sig, ok := fn.Type().(*types.Signature)
		return ok && sig.Recv() == nil
	}
	return RecvName(fn) == m.Recv
}

// SinkSpec marks a call whose arguments must not carry taint.
type SinkSpec struct {
	Match FuncMatch
	// Args are the call positions checked (receiver = 0, first argument
	// = 1 for methods; first argument = 0 for package functions). Nil
	// checks every argument but not the receiver.
	Args []int
	// What names the sink in diagnostics ("net.Conn.Write").
	What string
}

// SanitizerSpec marks a call that clears the taint of one argument in
// place (vcrypt.Cipher.EncryptPacket encrypting a payload).
type SanitizerSpec struct {
	Match FuncMatch
	Arg   int // call position of the sanitized argument
}

// ConstMatch names a package-level constant (vcrypt.ModeNone).
type ConstMatch struct {
	Path string
	Name string
}

// TaintSpec configures one taint analysis.
type TaintSpec struct {
	// Sources are calls whose results carry fresh taint.
	Sources []FuncMatch
	// Sanitizers clear the taint of an argument.
	Sanitizers []SanitizerSpec
	// Sinks reject tainted arguments.
	Sinks []SinkSpec
	// PolicyGuards are boolean-returning calls encoding the encryption
	// policy's per-packet decision; true means "this packet will be
	// encrypted". On the branch edge where a guard is known false the
	// policy itself has sanctioned plaintext, so all taint is cleared
	// (the paper's selective-encryption semantics).
	PolicyGuards []FuncMatch
	// PolicyClearConsts are constants whose comparison carries the same
	// authority: `mode == ModeNone` true (or `mode != ModeNone` false)
	// sanctions plaintext on that edge.
	PolicyClearConsts []ConstMatch
	// SinkMessage formats the diagnostic; it receives the sink's What.
	SinkMessage func(what string) string
}

// TaintSummary is the interprocedural summary of one function.
type TaintSummary struct {
	// Result is the union of origins over all returned values,
	// expressed in the function's own parameter positions.
	Result Origins
	// SinkParams has bit i set when parameter position i reaches a sink
	// (directly or through callees) without sanitization.
	SinkParams Origins
}

// TaintEngine computes and caches summaries for one Program+spec and
// checks packages against them.
type TaintEngine struct {
	spec *TaintSpec
	prog *Program
	sums map[*types.Func]TaintSummary
	// carry memoizes canCarry per type (1 = yes, 2 = no, 3 = in
	// progress, used as "no" to break recursive types).
	carry map[types.Type]int8
}

// canCarry reports whether a value of type t can transitively hold
// payload bytes. Storing taint is restricted to such types: an error, a
// bool or a bare int derived from a tainted buffer cannot leak the
// buffer's bytes, and without this filter the error result of a
// packetizer call would taint every early return.
func (e *TaintEngine) canCarry(t types.Type) bool {
	if t == nil {
		return true // unknown: stay conservative
	}
	switch e.carry[t] {
	case 1:
		return true
	case 2, 3:
		return false
	}
	e.carry[t] = 3
	res := e.carryUncached(t)
	if res {
		e.carry[t] = 1
	} else {
		e.carry[t] = 2
	}
	return res
}

func (e *TaintEngine) carryUncached(t types.Type) bool {
	switch t := t.(type) {
	case *types.Basic:
		return t.Info()&types.IsString != 0
	case *types.Slice:
		if b, ok := t.Elem().Underlying().(*types.Basic); ok {
			return b.Info()&types.IsNumeric != 0 || b.Info()&types.IsString != 0
		}
		return e.canCarry(t.Elem())
	case *types.Array:
		if b, ok := t.Elem().Underlying().(*types.Basic); ok {
			return b.Info()&types.IsNumeric != 0 || b.Info()&types.IsString != 0
		}
		return e.canCarry(t.Elem())
	case *types.Pointer:
		return e.canCarry(t.Elem())
	case *types.Map:
		return e.canCarry(t.Key()) || e.canCarry(t.Elem())
	case *types.Chan:
		return e.canCarry(t.Elem())
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			if e.canCarry(t.Field(i).Type()) {
				return true
			}
		}
		return false
	case *types.Named:
		if t.Obj().Pkg() == nil && t.Obj().Name() == "error" {
			return false // the universe error interface carries no payload
		}
		return e.canCarry(t.Underlying())
	case *types.Interface:
		return true // dynamic type unknown
	case *types.Signature:
		return false
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			if e.canCarry(t.At(i).Type()) {
				return true
			}
		}
		return false
	default:
		return true
	}
}

type taintCacheKey struct{ spec *TaintSpec }

// NewTaintEngine returns the engine for prog and spec, computing
// bottom-up summaries on first use (cached on the Program, so the cost
// is paid once per run however many packages are checked).
func NewTaintEngine(prog *Program, spec *TaintSpec) *TaintEngine {
	v := prog.Cache(taintCacheKey{spec}, func() any {
		e := &TaintEngine{
			spec:  spec,
			prog:  prog,
			carry: make(map[types.Type]int8),
		}
		// Summaries only grow: each round starts from the current one.
		e.sums = SolveBottomUp(prog, 0, func(fn *types.Func, src *FuncSource, sums map[*types.Func]TaintSummary) TaintSummary {
			return e.analyze(fn, src, sums, nil)
		}, func(a, b TaintSummary) bool { return a == b })
		return e
	})
	return v.(*TaintEngine)
}

// Summary returns the computed summary of a module-local function (nil
// for unknown functions).
func (e *TaintEngine) Summary(fn *types.Func) *TaintSummary {
	if e.prog.Source(fn) == nil {
		return nil
	}
	s := e.sums[fn]
	return &s
}

// Check reports sink violations in every function of the pass's
// package. Only Source-origin taint is reported here: a parameter
// flowing to a sink is the caller's finding (recorded in the summary
// and reported at the call site that supplies tainted data).
func (e *TaintEngine) Check(pass *Pass) {
	for _, fn := range e.prog.Funcs() {
		if src := e.prog.Source(fn); src.Pkg.Types == pass.Pkg {
			e.analyze(fn, src, e.sums, pass)
		}
	}
}

// analyze runs the flow problem over fn's body against the callee
// summaries sums and returns the body's summary, grown from its entry
// in sums; with a non-nil pass it additionally reports Source-origin
// sink hits in a single deterministic visit.
func (e *TaintEngine) analyze(fn *types.Func, src *FuncSource, sums map[*types.Func]TaintSummary, pass *Pass) TaintSummary {
	cfg := BuildCFG(src.Decl.Body)
	sum := sums[fn]
	p := &taintFlow{
		engine: e,
		info:   src.Pkg.Info,
		sums:   sums,
		sum:    &sum,
		entry:  e.entryFact(src.Decl, src.Pkg.Info),
	}
	in := Solve(cfg, p)
	if pass != nil {
		// Reporting visit: one pass over the solved facts so each sink
		// site fires at most once.
		p.pass = pass
		for _, b := range cfg.Blocks {
			f, ok := in[b]
			if !ok {
				continue
			}
			transferBlock(p, b, p.Clone(f))
		}
	}
	return sum
}

// entryFact taints every parameter (and the receiver) with its own
// parameter-position origin.
func (e *TaintEngine) entryFact(decl *ast.FuncDecl, info *types.Info) *taintFact {
	f := newTaintFact()
	pos := 0
	if decl.Recv != nil {
		for _, field := range decl.Recv.List {
			for _, name := range field.Names {
				if obj := info.Defs[name]; obj != nil && e.canCarry(obj.Type()) {
					f.vals[obj] = ParamOrigin(0)
				}
			}
		}
		pos = 1
	}
	if decl.Type.Params != nil {
		for _, field := range decl.Type.Params.List {
			if len(field.Names) == 0 {
				pos++
				continue
			}
			for _, name := range field.Names {
				if obj := info.Defs[name]; obj != nil && e.canCarry(obj.Type()) {
					f.vals[obj] = ParamOrigin(pos)
				}
				pos++
			}
		}
	}
	return f
}

// taintFact maps root objects to their origins, plus the set of boolean
// variables currently holding a policy decision.
type taintFact struct {
	vals   map[types.Object]Origins
	policy map[types.Object]bool
}

func newTaintFact() *taintFact {
	return &taintFact{vals: make(map[types.Object]Origins), policy: make(map[types.Object]bool)}
}

// taintFlow implements FlowProblem for one function.
type taintFlow struct {
	engine *TaintEngine
	info   *types.Info
	sums   map[*types.Func]TaintSummary // callee summaries
	sum    *TaintSummary                // the summary being computed
	entry  *taintFact
	pass   *Pass // nil during summary fixpoint
	// lit guards against re-walking the same function literal within
	// one transfer chain.
	litDepth int
}

func (p *taintFlow) EntryFact() Fact { return p.Clone(p.entry) }

func (p *taintFlow) Clone(f Fact) Fact {
	t := f.(*taintFact)
	n := newTaintFact()
	for k, v := range t.vals {
		n.vals[k] = v
	}
	for k, v := range t.policy {
		n.policy[k] = v
	}
	return n
}

func (p *taintFlow) Join(a, b Fact) Fact {
	x, y := a.(*taintFact), b.(*taintFact)
	for k, v := range y.vals {
		x.vals[k] |= v
	}
	// A variable is a policy decision only if it is one on every path.
	for k := range x.policy {
		if !y.policy[k] {
			delete(x.policy, k)
		}
	}
	return x
}

func (p *taintFlow) Equal(a, b Fact) bool {
	x, y := a.(*taintFact), b.(*taintFact)
	if len(x.vals) != len(y.vals) || len(x.policy) != len(y.policy) {
		return false
	}
	for k, v := range x.vals {
		if y.vals[k] != v {
			return false
		}
	}
	for k := range x.policy {
		if !y.policy[k] {
			return false
		}
	}
	return true
}

func (p *taintFlow) TransferEdge(e *Edge, f Fact) Fact {
	t := f.(*taintFact)
	if e.Cond != nil && p.blessEdge(e.Cond, !e.Negated, t) {
		// The policy ruled "no encryption" for the value(s) in flight:
		// plaintext on this path is sanctioned, not leaked.
		t.vals = make(map[types.Object]Origins)
	}
	return t
}

// blessEdge reports whether taking cond with the given truth value
// implies the encryption policy sanctioned plaintext.
func (p *taintFlow) blessEdge(cond ast.Expr, taken bool, f *taintFact) bool {
	switch c := cond.(type) {
	case *ast.ParenExpr:
		return p.blessEdge(c.X, taken, f)
	case *ast.UnaryExpr:
		if c.Op == token.NOT {
			return p.blessEdge(c.X, !taken, f)
		}
	case *ast.BinaryExpr:
		switch c.Op {
		case token.LAND:
			return taken && (p.blessEdge(c.X, true, f) || p.blessEdge(c.Y, true, f))
		case token.LOR:
			return !taken && (p.blessEdge(c.X, false, f) || p.blessEdge(c.Y, false, f))
		}
	}
	isPolicy, trueMeansEncrypt := p.policyPolarity(cond, f)
	return isPolicy && taken != trueMeansEncrypt
}

// policyPolarity classifies an expression as a policy decision and
// tells whether its true value means "encrypt".
func (p *taintFlow) policyPolarity(e ast.Expr, f *taintFact) (isPolicy, trueMeansEncrypt bool) {
	switch e := e.(type) {
	case *ast.ParenExpr:
		return p.policyPolarity(e.X, f)
	case *ast.Ident:
		if obj := p.objOf(e); obj != nil && f.policy[obj] {
			return true, true
		}
	case *ast.UnaryExpr:
		if e.Op == token.NOT {
			is, tme := p.policyPolarity(e.X, f)
			return is, !tme
		}
	case *ast.CallExpr:
		if fn := FuncForCall(p.info, e); fn != nil {
			for _, g := range p.engine.spec.PolicyGuards {
				if g.Matches(fn) {
					return true, true
				}
			}
		}
	case *ast.BinaryExpr:
		if e.Op == token.EQL || e.Op == token.NEQ {
			if p.isPolicyClearConst(e.X) || p.isPolicyClearConst(e.Y) {
				return true, e.Op == token.NEQ
			}
		}
	}
	return false, false
}

func (p *taintFlow) isPolicyClearConst(e ast.Expr) bool {
	var id *ast.Ident
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		id = e
	case *ast.SelectorExpr:
		id = e.Sel
	default:
		return false
	}
	c, ok := p.info.Uses[id].(*types.Const)
	if !ok || c.Pkg() == nil {
		return false
	}
	for _, m := range p.engine.spec.PolicyClearConsts {
		if c.Name() == m.Name && PathMatches(c.Pkg().Path(), m.Path) {
			return true
		}
	}
	return false
}

func (p *taintFlow) Transfer(n ast.Node, f Fact) Fact {
	t := f.(*taintFact)
	switch n := n.(type) {
	case *ast.AssignStmt:
		p.assignStmt(n, t)
	case *ast.DeclStmt:
		if gd, ok := n.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					var o Origins
					var isPol bool
					if i < len(vs.Values) {
						o = p.eval(vs.Values[i], t)
						isPol, _ = p.policyPolarity(vs.Values[i], t)
					}
					p.setIdent(name, o, isPol, t)
				}
			}
		}
	case *ast.ExprStmt:
		p.eval(n.X, t)
	case *ast.RangeStmt:
		o := p.eval(n.X, t)
		if n.Key != nil {
			p.assignTo(n.Key, 0, t) // keys are indices/map keys: untainted
		}
		if n.Value != nil {
			p.assignTo(n.Value, o, t)
		}
	case *ast.ReturnStmt:
		for _, r := range n.Results {
			o := p.eval(r, t)
			// Returns inside a function literal describe the literal's
			// result, not the enclosing function's summary.
			if p.litDepth == 0 {
				p.sum.Result |= o
			}
		}
	case *ast.SendStmt:
		p.eval(n.Chan, t)
		p.eval(n.Value, t)
	case *ast.IncDecStmt:
		p.eval(n.X, t)
	case *ast.GoStmt:
		p.evalCall(n.Call, t)
	case *ast.DeferStmt:
		// The call expression re-runs at the exit block; evaluate
		// argument side effects here where they actually happen.
		for _, a := range n.Call.Args {
			p.eval(a, t)
		}
	case *ast.CaseClause:
		for _, e := range n.List {
			p.eval(e, t)
		}
	case *ast.LabeledStmt, *ast.BranchStmt, *ast.EmptyStmt:
	case ast.Expr:
		p.eval(n, t)
	case ast.Stmt:
		// Init statements hoisted by the CFG builder (if/for/switch
		// initializers arrive as their concrete statement types above).
	}
	return t
}

func (p *taintFlow) assignStmt(n *ast.AssignStmt, t *taintFact) {
	if len(n.Lhs) == len(n.Rhs) {
		for i := range n.Lhs {
			o := p.eval(n.Rhs[i], t)
			if n.Tok != token.ASSIGN && n.Tok != token.DEFINE {
				o |= p.eval(n.Lhs[i], t) // op= accumulates
			}
			isPol, _ := p.policyPolarity(n.Rhs[i], t)
			p.assignToPolicy(n.Lhs[i], o, isPol, t)
		}
		return
	}
	// x, y := f()  /  v, ok := m[k]  /  v, ok := x.(T)
	var o Origins
	for _, r := range n.Rhs {
		o |= p.eval(r, t)
	}
	for _, l := range n.Lhs {
		p.assignToPolicy(l, o, false, t)
	}
}

func (p *taintFlow) objOf(id *ast.Ident) types.Object {
	if obj := p.info.Uses[id]; obj != nil {
		return obj
	}
	return p.info.Defs[id]
}

// rootObject finds the root variable of an lvalue chain.
func (p *taintFlow) rootObject(e ast.Expr) types.Object {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return p.objOf(x)
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.UnaryExpr:
			e = x.X
		case *ast.SelectorExpr:
			// Qualified package identifiers (pkg.Var) root at the var.
			if id, ok := x.X.(*ast.Ident); ok {
				if _, isPkg := p.info.Uses[id].(*types.PkgName); isPkg {
					return p.objOf(x.Sel)
				}
			}
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.TypeAssertExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// filter drops origins that the object's type cannot physically hold.
func (p *taintFlow) filter(obj types.Object, o Origins) Origins {
	if o == 0 || p.engine.canCarry(obj.Type()) {
		return o
	}
	return 0
}

func (p *taintFlow) setIdent(id *ast.Ident, o Origins, isPolicy bool, t *taintFact) {
	obj := p.objOf(id)
	if obj == nil || id.Name == "_" {
		return
	}
	o = p.filter(obj, o)
	if o == 0 {
		delete(t.vals, obj)
	} else {
		t.vals[obj] = o
	}
	if isPolicy {
		t.policy[obj] = true
	} else {
		delete(t.policy, obj)
	}
}

// assignTo writes origins to an lvalue: strong update for identifiers,
// weak (accumulating) update for field/index stores.
func (p *taintFlow) assignTo(l ast.Expr, o Origins, t *taintFact) {
	p.assignToPolicy(l, o, false, t)
}

func (p *taintFlow) assignToPolicy(l ast.Expr, o Origins, isPolicy bool, t *taintFact) {
	if id, ok := ast.Unparen(l).(*ast.Ident); ok {
		p.setIdent(id, o, isPolicy, t)
		return
	}
	if root := p.rootObject(l); root != nil {
		if o = p.filter(root, o); o != 0 {
			t.vals[root] |= o
		}
	}
}

// eval computes the origins of an expression, performing call side
// effects (sources, sanitizers, sinks, summaries) along the way.
func (p *taintFlow) eval(e ast.Expr, t *taintFact) Origins {
	switch e := e.(type) {
	case *ast.Ident:
		if obj := p.objOf(e); obj != nil {
			return t.vals[obj]
		}
	case *ast.ParenExpr:
		return p.eval(e.X, t)
	case *ast.StarExpr:
		return p.eval(e.X, t)
	case *ast.UnaryExpr:
		return p.eval(e.X, t)
	case *ast.SelectorExpr:
		if id, ok := e.X.(*ast.Ident); ok {
			if _, isPkg := p.info.Uses[id].(*types.PkgName); isPkg {
				if obj := p.objOf(e.Sel); obj != nil {
					return t.vals[obj]
				}
				return 0
			}
		}
		return p.eval(e.X, t)
	case *ast.IndexExpr:
		p.eval(e.Index, t)
		return p.eval(e.X, t)
	case *ast.SliceExpr:
		if e.Low != nil {
			p.eval(e.Low, t)
		}
		if e.High != nil {
			p.eval(e.High, t)
		}
		return p.eval(e.X, t)
	case *ast.TypeAssertExpr:
		return p.eval(e.X, t)
	case *ast.BinaryExpr:
		return p.eval(e.X, t) | p.eval(e.Y, t)
	case *ast.CompositeLit:
		var o Origins
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				o |= p.eval(kv.Value, t)
				continue
			}
			o |= p.eval(el, t)
		}
		return o
	case *ast.CallExpr:
		return p.evalCall(e, t)
	case *ast.FuncLit:
		p.analyzeLit(e, nil, t)
		return 0
	}
	return 0
}

// evalCall handles builtins, spec matches and summaries.
func (p *taintFlow) evalCall(call *ast.CallExpr, t *taintFact) Origins {
	fun := ast.Unparen(call.Fun)

	// Builtins and conversions.
	if id, ok := fun.(*ast.Ident); ok {
		if b, ok := p.info.Uses[id].(*types.Builtin); ok {
			return p.evalBuiltin(b.Name(), call, t)
		}
		if _, isType := p.info.Uses[id].(*types.TypeName); isType {
			var o Origins
			for _, a := range call.Args {
				o |= p.eval(a, t)
			}
			return o // conversion: T(x)
		}
	}
	if sel, ok := fun.(*ast.SelectorExpr); ok {
		if id, ok := sel.X.(*ast.Ident); ok {
			if _, isPkg := p.info.Uses[id].(*types.PkgName); isPkg {
				if _, isType := p.info.Uses[sel.Sel].(*types.TypeName); isType {
					var o Origins
					for _, a := range call.Args {
						o |= p.eval(a, t)
					}
					return o // conversion: pkg.T(x)
				}
			}
		}
	}

	// A literal invoked (or launched) in place: bind its parameters to
	// the argument origins and analyze the body with the current facts.
	if lit, ok := fun.(*ast.FuncLit); ok {
		args := make([]Origins, len(call.Args))
		for i, a := range call.Args {
			args[i] = p.eval(a, t)
		}
		p.analyzeLit(lit, args, t)
		var o Origins
		for _, a := range args {
			o |= a
		}
		return o
	}

	// Positional origins: receiver first for methods.
	callee := FuncForCall(p.info, call)
	var pos []Origins
	var recvExpr ast.Expr
	isMethod := false
	if sel, ok := fun.(*ast.SelectorExpr); ok && callee != nil {
		if sig, ok := callee.Type().(*types.Signature); ok && sig.Recv() != nil {
			isMethod = true
			recvExpr = sel.X
		}
	}
	if isMethod {
		pos = append(pos, p.eval(recvExpr, t))
	}
	for _, a := range call.Args {
		pos = append(pos, p.eval(a, t))
	}

	if callee == nil {
		// Function value or unresolved call: propagate, never a sink.
		var o Origins
		for _, a := range pos {
			o |= a
		}
		p.eval(fun, t)
		return o
	}

	spec := p.engine.spec
	for _, s := range spec.Sanitizers {
		if s.Match.Matches(callee) && s.Arg < len(pos) {
			if root := p.sanitizeTarget(call, isMethod, s.Arg); root != nil {
				delete(t.vals, root)
			}
			pos[s.Arg] = 0
		}
	}
	for _, s := range spec.Sinks {
		if !s.Match.Matches(callee) {
			continue
		}
		checked := s.Args
		if checked == nil {
			first := 0
			if isMethod {
				first = 1
			}
			for i := first; i < len(pos); i++ {
				checked = append(checked, i)
			}
		}
		for _, i := range checked {
			if i < len(pos) {
				p.sinkHit(call, pos[i], s.What)
			}
		}
	}
	for _, s := range spec.Sources {
		if s.Matches(callee) {
			return OriginSource
		}
	}
	for _, g := range spec.PolicyGuards {
		if g.Matches(callee) {
			return 0
		}
	}

	if p.engine.prog.Source(callee) != nil {
		sum := p.sums[callee]
		// Module-local callee: substitute this call's origins into the
		// callee's parameter-indexed summary.
		for i, o := range pos {
			if sum.SinkParams&ParamOrigin(i) != 0 {
				p.sinkHit(call, o, fmt.Sprintf("a network write inside %s", callee.Name()))
			}
		}
		var o Origins
		if sum.Result&OriginSource != 0 {
			o |= OriginSource
		}
		for i, po := range pos {
			if sum.Result&ParamOrigin(i) != 0 {
				o |= po
			}
		}
		return o
	}

	// Unknown out-of-module callee: propagate arguments to the result
	// and, for methods, into the receiver (buf.Write(tainted) taints
	// buf).
	var o Origins
	for _, a := range pos {
		o |= a
	}
	if isMethod && o != 0 {
		if root := p.rootObject(recvExpr); root != nil {
			if ro := p.filter(root, o); ro != 0 {
				t.vals[root] |= ro
			}
		}
	}
	return o
}

// sinkHit records (and in reporting mode reports) taint arriving at a
// sink. Parameter origins feed the summary so callers report at their
// own call sites; Source origins are this function's finding.
func (p *taintFlow) sinkHit(call *ast.CallExpr, o Origins, what string) {
	p.sum.SinkParams |= o & paramMask
	if o&OriginSource != 0 && p.pass != nil {
		msg := "tainted packet payload reaches " + what + " without encryption"
		if p.engine.spec.SinkMessage != nil {
			msg = p.engine.spec.SinkMessage(what)
		}
		p.pass.Reportf(call.Pos(), "%s", msg)
	}
}

// sanitizeTarget resolves the root object of the sanitized argument.
func (p *taintFlow) sanitizeTarget(call *ast.CallExpr, isMethod bool, arg int) types.Object {
	idx := arg
	if isMethod {
		idx--
	}
	if idx < 0 || idx >= len(call.Args) {
		return nil
	}
	return p.rootObject(call.Args[idx])
}

func (p *taintFlow) evalBuiltin(name string, call *ast.CallExpr, t *taintFact) Origins {
	switch name {
	case "append":
		var o Origins
		for _, a := range call.Args {
			o |= p.eval(a, t)
		}
		return o
	case "copy":
		if len(call.Args) == 2 {
			src := p.eval(call.Args[1], t)
			if root := p.rootObject(call.Args[0]); root != nil {
				if src = p.filter(root, src); src != 0 {
					t.vals[root] |= src
				}
			}
		}
		return 0
	case "len", "cap", "make", "new", "min", "max", "delete", "clear":
		for _, a := range call.Args {
			p.eval(a, t)
		}
		return 0
	default:
		var o Origins
		for _, a := range call.Args {
			o |= p.eval(a, t)
		}
		return o
	}
}

// analyzeLit walks a function literal's body with the facts at its
// creation point. Captured variables share their types.Object keys with
// the enclosing function, so taint flows in naturally; sink hits inside
// the literal land on the enclosing function's summary. args, when the
// literal is invoked or launched in place, bind the literal's own
// parameters.
func (p *taintFlow) analyzeLit(lit *ast.FuncLit, args []Origins, t *taintFact) {
	if p.litDepth >= 8 {
		return
	}
	entry := p.Clone(t).(*taintFact)
	if lit.Type.Params != nil {
		i := 0
		for _, field := range lit.Type.Params.List {
			for _, name := range field.Names {
				var o Origins
				if args != nil && i < len(args) {
					o = args[i]
				}
				if obj := p.info.Defs[name]; obj != nil {
					if o = p.filter(obj, o); o != 0 {
						entry.vals[obj] = o
					}
				}
				i++
			}
		}
	}
	sub := &taintFlow{
		engine:   p.engine,
		info:     p.info,
		sums:     p.sums,
		sum:      p.sum,
		entry:    entry,
		litDepth: p.litDepth + 1,
	}
	cfg := BuildCFG(lit.Body)
	in := Solve(cfg, sub)
	if p.pass != nil {
		sub.pass = p.pass
		for _, b := range cfg.Blocks {
			f, ok := in[b]
			if !ok {
				continue
			}
			transferBlock(sub, b, sub.Clone(f))
		}
	}
}
