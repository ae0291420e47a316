// Package bufown proves the linear-ownership discipline of the
// zero-copy wire path: every codec.WirePacket acquired from
// codec.PacketizeInto (or a wrapper returning its packets) must reach
// exactly one release — BufPool.Put or WirePacket.Retain — on every
// path after its final use. The pass reports
//
//   - leaks: a packet that may reach the function exit, or be re-bound
//     on a loop back edge, while still owning its pooled buffer;
//   - double-Put: a Put of a packet some path already released;
//   - use-after-Put: any use of a packet after a Put may have recycled
//     its buffer;
//   - unannotated retains: every WirePacket.Retain call site must carry
//     a //lint:retain(reason) marker on its line or the line above, so
//     each sanctioned escape from the pool (the I-frame retransmit
//     queue, the resumable segment store) names its justification.
//
// The analysis is a forward may-analysis over the lintkit CFG. The
// tracked objects are element pointers bound as p := &wps[i] where wps
// was assigned from PacketizeInto; each carries a state set drawn from
// {owned, released, escaped}. Put moves owned to released (and is a
// no-op on escaped packets, matching the runtime contract of Put after
// Retain); Retain moves any live state to escaped; passing the pointer
// to a module-local callee whose bottom-up summary consumes that
// parameter releases it (ownership transfer through calls, mirroring
// the taint engine's TaintSummary); passing it anywhere opaque — a
// non-local call, a return, a store — escapes it conservatively.
//
// Soundness caveats (documented in DESIGN.md): the slice returned by
// PacketizeInto is not tracked as a whole, so abandoning a batch before
// binding element pointers is invisible; module-local callees that
// store a borrowed pointer without consuming it are treated as borrows;
// function literals are separate bodies, and a packet captured by a
// literal is treated as escaped in the enclosing body.
package bufown

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"repro/tools/analyzers/lintkit"
)

// DefaultPackages are the layers that drive the pooled wire path.
var DefaultPackages = []string{
	"internal/transport",
}

// Analyzer is the bufown pass.
var Analyzer = &lintkit.Analyzer{
	Name: "bufown",
	Doc: "Proves linear ownership of pooled codec.WirePacket buffers: " +
		"every packet acquired from PacketizeInto reaches exactly one " +
		"BufPool.Put or annotated WirePacket.Retain on every path; " +
		"reports leaks, double-Put, use-after-Put and unannotated " +
		"retains. Ownership transfer through module-local calls is " +
		"resolved with bottom-up consumes/returns summaries.",
	Packages: DefaultPackages,
	Run:      run,
}

var (
	packetizeInto = lintkit.FuncMatch{Path: "internal/codec", Name: "PacketizeInto"}
	poolPut       = lintkit.FuncMatch{Path: "internal/codec", Recv: "BufPool", Name: "Put"}
	pktRetain     = lintkit.FuncMatch{Path: "internal/codec", Recv: "WirePacket", Name: "Retain"}
)

func run(pass *lintkit.Pass) error {
	if pass.Prog == nil {
		return nil
	}
	sums := ownSummaries(pass.Prog)
	checkRetainAnnotations(pass)
	// Every literal is its own body: it generally runs on another
	// goroutine (live_http's upload loop) or at defer time, where the
	// enclosing bindings do not apply.
	lintkit.ForEachBody(pass.Files, func(_ ast.Node, body *ast.BlockStmt) {
		checkBody(pass, sums, body)
	})
	return nil
}

// checkRetainAnnotations enforces the //lint:retain(reason) marker on
// every WirePacket.Retain call site: the sanctioned escapes from the
// pool must each name their justification where the escape happens.
func checkRetainAnnotations(pass *lintkit.Pass) {
	for _, f := range pass.Files {
		annotated := retainMarkerLines(pass.Fset, f)
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := lintkit.FuncForCall(pass.TypesInfo, call)
			if fn == nil || !pktRetain.Matches(fn) {
				return true
			}
			line := pass.Fset.Position(call.Pos()).Line
			if !annotated[line] && !annotated[line-1] {
				pass.Reportf(call.Pos(), "WirePacket.Retain without a //lint:retain(reason) annotation on this line or the line above")
			}
			return true
		})
	}
}

// retainMarkerLines collects the lines of f carrying a well-formed
// //lint:retain(reason) marker with a non-empty reason.
func retainMarkerLines(fset *token.FileSet, f *ast.File) map[int]bool {
	lines := make(map[int]bool)
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
			rest, ok := strings.CutPrefix(text, "lint:retain(")
			if !ok {
				continue
			}
			reason, _, ok := strings.Cut(rest, ")")
			if !ok || strings.TrimSpace(reason) == "" {
				continue
			}
			lines[fset.Position(c.Pos()).Line] = true
		}
	}
	return lines
}

// Ownership states. A fact holds the may-set per tracked packet.
const (
	stOwned    uint8 = 1 << iota // holds a pooled buffer not yet released
	stReleased                   // a Put may have recycled the buffer
	stEscaped                    // retained or moved out; never rejoins the pool here
)

type pktState struct {
	states  uint8
	acquire token.Pos // binding that conferred ownership
	release token.Pos // Put that set stReleased (diagnostics)
}

type bufFact map[types.Object]pktState

// ownFlow implements the ownership analysis for one body.
type ownFlow struct {
	pass   *lintkit.Pass
	sums   map[*types.Func]*ownSummary
	report bool
	// srcVars are the slice variables assigned from PacketizeInto (or
	// a returns-owned wrapper) somewhere in this body.
	srcVars map[types.Object]bool
	// candidates are the element-pointer variables bound as &src[i];
	// the flow facts track exactly these.
	candidates map[types.Object]bool
}

func (p *ownFlow) EntryFact() lintkit.Fact { return bufFact{} }

func (p *ownFlow) Clone(f lintkit.Fact) lintkit.Fact {
	n := bufFact{}
	for k, v := range f.(bufFact) {
		n[k] = v
	}
	return n
}

func (p *ownFlow) Join(a, b lintkit.Fact) lintkit.Fact {
	x, y := a.(bufFact), b.(bufFact)
	for k, v := range y {
		o, ok := x[k]
		if !ok {
			x[k] = v
			continue
		}
		o.states |= v.states
		if v.acquire < o.acquire {
			o.acquire = v.acquire
		}
		if o.release == token.NoPos {
			o.release = v.release
		}
		x[k] = o
	}
	return x
}

func (p *ownFlow) Equal(a, b lintkit.Fact) bool {
	x, y := a.(bufFact), b.(bufFact)
	if len(x) != len(y) {
		return false
	}
	for k, v := range x {
		o, ok := y[k]
		if !ok || o.states != v.states || o.acquire != v.acquire {
			return false
		}
	}
	return true
}

func (p *ownFlow) TransferEdge(e *lintkit.Edge, f lintkit.Fact) lintkit.Fact { return f }

func (p *ownFlow) Transfer(n ast.Node, f lintkit.Fact) lintkit.Fact {
	fact := f.(bufFact)
	if obj := p.bindingTarget(n); obj != nil {
		if old, ok := fact[obj]; ok && old.states&stOwned != 0 {
			if p.report {
				p.pass.Reportf(n.Pos(), "packet %s is re-bound while a previous packet may still own its pooled buffer (missing BufPool.Put or Retain before the loop back edge)", objName(obj))
			}
		}
		fact[obj] = pktState{states: stOwned, acquire: n.Pos()}
		return fact
	}
	for _, ev := range p.events(n) {
		st, ok := fact[ev.obj]
		if !ok {
			continue // not acquired on this path
		}
		switch ev.kind {
		case evUse:
			if st.states&stReleased != 0 && p.report {
				p.pass.Reportf(ev.pos, "use of packet %s after BufPool.Put may touch a recycled buffer (released at %s)", objName(ev.obj), p.pos(st.release))
			}
		case evConsume:
			if st.states&stReleased != 0 {
				if p.report {
					p.pass.Reportf(ev.pos, "double Put of packet %s (already released at %s)", objName(ev.obj), p.pos(st.release))
				}
			} else if st.states&stOwned != 0 {
				st.states = (st.states &^ stOwned) | stReleased
				st.release = ev.pos
			}
			fact[ev.obj] = st
		case evRetain:
			if st.states&stReleased != 0 && p.report {
				p.pass.Reportf(ev.pos, "Retain of packet %s after BufPool.Put (released at %s)", objName(ev.obj), p.pos(st.release))
			}
			st.states = stEscaped
			fact[ev.obj] = st
		case evEscape:
			if st.states&stReleased != 0 && p.report {
				p.pass.Reportf(ev.pos, "packet %s moved out of scope after BufPool.Put (released at %s)", objName(ev.obj), p.pos(st.release))
			}
			st.states = stEscaped
			fact[ev.obj] = st
		}
	}
	return fact
}

func (p *ownFlow) pos(pos token.Pos) string {
	pp := p.pass.Fset.Position(pos)
	return pp.String()
}

func objName(obj types.Object) string { return obj.Name() }

// bindingTarget recognizes the acquisition shape p := &src[i] (or a
// plain assignment of that form) and returns the bound object.
func (p *ownFlow) bindingTarget(n ast.Node) types.Object {
	as, ok := n.(*ast.AssignStmt)
	if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return nil
	}
	id, ok := as.Lhs[0].(*ast.Ident)
	if !ok {
		return nil
	}
	obj := p.objFor(id)
	if obj == nil || !p.candidates[obj] {
		return nil
	}
	if p.elementOfSource(as.Rhs[0]) {
		return obj
	}
	return nil
}

// elementOfSource reports whether e is &src[i] for a tracked source
// slice.
func (p *ownFlow) elementOfSource(e ast.Expr) bool {
	u, ok := ast.Unparen(e).(*ast.UnaryExpr)
	if !ok || u.Op != token.AND {
		return false
	}
	ix, ok := ast.Unparen(u.X).(*ast.IndexExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(ix.X).(*ast.Ident)
	if !ok {
		return false
	}
	obj := p.objFor(id)
	return obj != nil && p.srcVars[obj]
}

func (p *ownFlow) objFor(id *ast.Ident) types.Object {
	if obj := p.pass.TypesInfo.Uses[id]; obj != nil {
		return obj
	}
	return p.pass.TypesInfo.Defs[id]
}

type eventKind int

const (
	evUse eventKind = iota
	evConsume
	evRetain
	evEscape
)

type event struct {
	kind eventKind
	obj  types.Object
	pos  token.Pos
}

// events walks one CFG node in source order and classifies every
// appearance of a tracked packet pointer. It respects the CFG's
// decomposition: range headers contribute only their ranged expression,
// case clause headers only their guards, select headers nothing (comm
// statements live in the clause blocks), and deferred calls nothing at
// the defer site (the exit block replays the call expression, where the
// consume or escape is accounted once, on every path).
func (p *ownFlow) events(n ast.Node) []event {
	var evs []event
	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		if n == nil {
			return
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			// The literal body is analyzed separately; a capture moves
			// the pointer beyond this body's view.
			ast.Inspect(n.Body, func(c ast.Node) bool {
				if id, ok := c.(*ast.Ident); ok {
					if obj := p.objFor(id); obj != nil && p.candidates[obj] {
						evs = append(evs, event{kind: evEscape, obj: obj, pos: id.Pos()})
					}
				}
				return true
			})
			return
		case *ast.CallExpr:
			p.callEvents(n, &evs, walk)
			return
		case *ast.SelectorExpr:
			// Reading a field (pkt.Payload) or taking a method value
			// borrows the packet; the pointer itself does not move.
			if id, ok := ast.Unparen(n.X).(*ast.Ident); ok {
				if obj := p.objFor(id); obj != nil && p.candidates[obj] {
					evs = append(evs, event{kind: evUse, obj: obj, pos: id.Pos()})
					return
				}
			}
			walk(n.X)
			return
		case *ast.Ident:
			// A bare tracked ident in any other position (assignment,
			// return, composite literal, send, comparison) moves or
			// copies the pointer: conservatively an escape.
			if obj := p.objFor(n); obj != nil && p.candidates[obj] {
				evs = append(evs, event{kind: evEscape, obj: obj, pos: n.Pos()})
			}
			return
		}
		// Generic node: recurse into children in source order.
		ast.Inspect(n, func(c ast.Node) bool {
			if c == nil || c == n {
				return c == n
			}
			walk(c)
			return false
		})
	}
	switch n := n.(type) {
	case *ast.RangeStmt:
		walk(n.X)
	case *ast.CaseClause:
		for _, e := range n.List {
			walk(e)
		}
	case *ast.SelectStmt, *ast.DeferStmt:
		// Nothing: clause bodies and deferred calls are replayed in
		// their own blocks.
	case *ast.GoStmt:
		// The call runs on another goroutine: a packet handed to it is
		// beyond this body's view.
		for _, a := range n.Call.Args {
			if id, ok := ast.Unparen(a).(*ast.Ident); ok {
				if obj := p.objFor(id); obj != nil && p.candidates[obj] {
					evs = append(evs, event{kind: evEscape, obj: obj, pos: a.Pos()})
					continue
				}
			}
			walk(a)
		}
	default:
		walk(n)
	}
	return evs
}

// callEvents classifies the receiver and arguments of one call.
func (p *ownFlow) callEvents(call *ast.CallExpr, evs *[]event, walk func(ast.Node)) {
	fn := lintkit.FuncForCall(p.pass.TypesInfo, call)
	var sum *ownSummary
	if fn != nil {
		sum = p.sums[fn]
	}
	// Receiver of a method call.
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
			if obj := p.objFor(id); obj != nil && p.candidates[obj] {
				switch {
				case fn != nil && pktRetain.Matches(fn):
					*evs = append(*evs, event{kind: evRetain, obj: obj, pos: call.Pos()})
				case sum != nil && sum.consumes[recvIndex]:
					*evs = append(*evs, event{kind: evConsume, obj: obj, pos: call.Pos()})
				default:
					// WirePacket's own accessors (Wire, IsIFrame, the
					// embedded Packet methods) borrow the packet.
					*evs = append(*evs, event{kind: evUse, obj: obj, pos: call.Pos()})
				}
			} else {
				walk(sel.X)
			}
		} else {
			walk(sel.X)
		}
	}
	for i, arg := range call.Args {
		if id, ok := ast.Unparen(arg).(*ast.Ident); ok {
			if obj := p.objFor(id); obj != nil && p.candidates[obj] {
				switch {
				case fn != nil && poolPut.Matches(fn) && i == 0:
					*evs = append(*evs, event{kind: evConsume, obj: obj, pos: call.Pos()})
				case sum != nil && sum.consumes[i]:
					*evs = append(*evs, event{kind: evConsume, obj: obj, pos: call.Pos()})
				case fn != nil && p.pass.Prog.Source(fn) != nil:
					// Module-local callee that does not consume: a
					// borrow (caveat: stores inside the callee are
					// invisible).
					*evs = append(*evs, event{kind: evUse, obj: obj, pos: arg.Pos()})
				default:
					// Unknown callee (stdlib, function value): assume
					// it takes ownership.
					*evs = append(*evs, event{kind: evEscape, obj: obj, pos: arg.Pos()})
				}
				continue
			}
		}
		walk(arg)
	}
}

// checkBody solves the ownership analysis for one body, then reports in
// a single deterministic visit; finally every packet whose may-state
// still contains owned at the function exit is reported as a leak at
// its acquisition site.
func checkBody(pass *lintkit.Pass, sums map[*types.Func]*ownSummary, body *ast.BlockStmt) {
	p := &ownFlow{pass: pass, sums: sums}
	p.srcVars, p.candidates = scanBindings(pass, body)
	if len(p.candidates) == 0 {
		return
	}
	cfg := lintkit.BuildCFG(body)
	in := lintkit.Solve(cfg, p)
	p.report = true
	for _, b := range cfg.Blocks {
		f, ok := in[b]
		if !ok {
			continue
		}
		f = p.Clone(f).(bufFact)
		for _, n := range b.Nodes {
			f = p.Transfer(n, f).(bufFact)
		}
		if b == cfg.Exit {
			reportExitLeaks(pass, f.(bufFact))
		}
	}
}

func reportExitLeaks(pass *lintkit.Pass, f bufFact) {
	type leak struct {
		obj types.Object
		pos token.Pos
	}
	var leaks []leak
	for obj, st := range f {
		if st.states&stOwned != 0 {
			leaks = append(leaks, leak{obj, st.acquire})
		}
	}
	sort.Slice(leaks, func(i, j int) bool { return leaks[i].pos < leaks[j].pos })
	for _, l := range leaks {
		pass.Reportf(l.pos, "packet %s may reach the function exit still owning its pooled buffer (no BufPool.Put or Retain on some path)", objName(l.obj))
	}
}

// scanBindings finds, flow-insensitively, the slice variables assigned
// from PacketizeInto (or a returns-owned wrapper) and the element
// pointers bound from them. Function literals are skipped: each is its
// own body with its own bindings.
func scanBindings(pass *lintkit.Pass, body *ast.BlockStmt) (srcVars, candidates map[types.Object]bool) {
	srcVars = make(map[types.Object]bool)
	candidates = make(map[types.Object]bool)
	sums := ownSummaries(pass.Prog)
	objFor := func(id *ast.Ident) types.Object {
		if obj := pass.TypesInfo.Uses[id]; obj != nil {
			return obj
		}
		return pass.TypesInfo.Defs[id]
	}
	skipLits := func(n ast.Node) bool {
		_, isLit := n.(*ast.FuncLit)
		return !isLit
	}
	visit := func(f func(as *ast.AssignStmt)) {
		ast.Inspect(body, func(n ast.Node) bool {
			if !skipLits(n) && n != body {
				return false
			}
			if as, ok := n.(*ast.AssignStmt); ok {
				f(as)
			}
			return true
		})
	}
	// Pass 1: source slices.
	visit(func(as *ast.AssignStmt) {
		if len(as.Rhs) != 1 {
			return
		}
		call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
		if !ok {
			return
		}
		fn := lintkit.FuncForCall(pass.TypesInfo, call)
		if fn == nil {
			return
		}
		owned := packetizeInto.Matches(fn)
		if !owned {
			if s := sums[fn]; s != nil && s.returnsOwned {
				owned = true
			}
		}
		if !owned {
			return
		}
		id, ok := as.Lhs[0].(*ast.Ident)
		if !ok || id.Name == "_" {
			return
		}
		if obj := objFor(id); obj != nil && isWirePacketSlice(obj.Type()) {
			srcVars[obj] = true
		}
	})
	// Pass 2: element pointers &src[i].
	visit(func(as *ast.AssignStmt) {
		if len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return
		}
		u, ok := ast.Unparen(as.Rhs[0]).(*ast.UnaryExpr)
		if !ok || u.Op != token.AND {
			return
		}
		ix, ok := ast.Unparen(u.X).(*ast.IndexExpr)
		if !ok {
			return
		}
		sid, ok := ast.Unparen(ix.X).(*ast.Ident)
		if !ok {
			return
		}
		sobj := objFor(sid)
		if sobj == nil || !srcVars[sobj] {
			return
		}
		id, ok := as.Lhs[0].(*ast.Ident)
		if !ok || id.Name == "_" {
			return
		}
		if obj := objFor(id); obj != nil {
			candidates[obj] = true
		}
	})
	return srcVars, candidates
}

// isWirePacketSlice reports whether t is []codec.WirePacket.
func isWirePacketSlice(t types.Type) bool {
	sl, ok := t.Underlying().(*types.Slice)
	return ok && isWirePacket(sl.Elem())
}

func isWirePacket(t types.Type) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	if obj.Name() != "WirePacket" || obj.Pkg() == nil {
		return false
	}
	return lintkit.PathMatches(obj.Pkg().Path(), "internal/codec")
}

// recvIndex keys the receiver in an ownSummary's consumes map.
const recvIndex = -1

// ownSummary is the bottom-up ownership summary of one module-local
// function: which *WirePacket parameters it consumes (releases or
// retains on some path, directly or transitively) and whether its
// results carry fresh buffer ownership to the caller.
type ownSummary struct {
	consumes     map[int]bool
	returnsOwned bool
}

type ownCacheKey struct{}

// ownSummaries computes the ownership summaries for every module-local
// function, bottom-up over the call graph so wrappers compose (a helper
// that forwards to BufPool.Put consumes its parameter; a helper that
// forwards PacketizeInto's result returns owned packets).
func ownSummaries(prog *lintkit.Program) map[*types.Func]*ownSummary {
	v := prog.Cache(ownCacheKey{}, func() any {
		return lintkit.SolveBottomUp(prog, 0, summarize, equalSummary)
	})
	return v.(map[*types.Func]*ownSummary)
}

// equalSummary compares two summaries; nil, the solver's starting
// value, equals only nil.
func equalSummary(a, b *ownSummary) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.returnsOwned != b.returnsOwned || len(a.consumes) != len(b.consumes) {
		return false
	}
	for k := range a.consumes {
		if !b.consumes[k] {
			return false
		}
	}
	return true
}

// summarize computes one function's summary given the summaries so far.
func summarize(fn *types.Func, src *lintkit.FuncSource, sums map[*types.Func]*ownSummary) *ownSummary {
	s := &ownSummary{consumes: make(map[int]bool)}
	params := paramObjects(src)
	if len(params) > 0 {
		markConsumed := func(e ast.Expr) {
			id, ok := ast.Unparen(e).(*ast.Ident)
			if !ok {
				return
			}
			obj := src.Pkg.Info.Uses[id]
			if obj == nil {
				return
			}
			if idx, ok := params[obj]; ok {
				s.consumes[idx] = true
			}
		}
		ast.Inspect(src.Decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := lintkit.FuncForCall(src.Pkg.Info, call)
			if callee == nil {
				return true
			}
			switch {
			case poolPut.Matches(callee):
				if len(call.Args) > 0 {
					markConsumed(call.Args[0])
				}
			case pktRetain.Matches(callee):
				if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
					markConsumed(sel.X)
				}
			default:
				if cs := sums[callee]; cs != nil {
					for i, arg := range call.Args {
						if cs.consumes[i] {
							markConsumed(arg)
						}
					}
					if cs.consumes[recvIndex] {
						if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
							markConsumed(sel.X)
						}
					}
				}
			}
			return true
		})
	}
	s.returnsOwned = computeReturnsOwned(fn, src, sums)
	return s
}

// computeReturnsOwned reports whether fn's results hand fresh packet
// ownership to the caller: the signature returns []codec.WirePacket and
// the body reaches PacketizeInto (or a returns-owned callee).
func computeReturnsOwned(fn *types.Func, src *lintkit.FuncSource, sums map[*types.Func]*ownSummary) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	returnsSlice := false
	for i := 0; i < sig.Results().Len(); i++ {
		if isWirePacketSlice(sig.Results().At(i).Type()) {
			returnsSlice = true
		}
	}
	if !returnsSlice {
		return false
	}
	found := false
	ast.Inspect(src.Decl.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := lintkit.FuncForCall(src.Pkg.Info, call)
		if callee == nil {
			return true
		}
		if packetizeInto.Matches(callee) {
			found = true
			return false
		}
		if cs := sums[callee]; cs != nil && cs.returnsOwned {
			found = true
			return false
		}
		return true
	})
	return found
}

// paramObjects maps fn's receiver and parameter objects to their
// consumes-index (receiver = recvIndex, parameters 0-based), keeping
// only *codec.WirePacket entries.
func paramObjects(src *lintkit.FuncSource) map[types.Object]int {
	out := make(map[types.Object]int)
	addField := func(f *ast.Field, idx func() int) {
		for _, name := range f.Names {
			obj := src.Pkg.Info.Defs[name]
			if obj == nil {
				continue
			}
			ptr, ok := obj.Type().(*types.Pointer)
			if !ok || !isWirePacket(ptr.Elem()) {
				continue
			}
			out[obj] = idx()
		}
	}
	if src.Decl.Recv != nil {
		for _, f := range src.Decl.Recv.List {
			addField(f, func() int { return recvIndex })
		}
	}
	i := 0
	if src.Decl.Type.Params != nil {
		for _, f := range src.Decl.Type.Params.List {
			for _, name := range f.Names {
				obj := src.Pkg.Info.Defs[name]
				idx := i
				i++
				if obj == nil {
					continue
				}
				ptr, ok := obj.Type().(*types.Pointer)
				if !ok || !isWirePacket(ptr.Elem()) {
					continue
				}
				out[obj] = idx
			}
			if len(f.Names) == 0 {
				i++
			}
		}
	}
	return out
}
