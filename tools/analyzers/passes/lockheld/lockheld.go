// Package lockheld flags mutexes held across blocking operations. A
// lock that protects shared pacing or reassembly state must bound a
// short critical section; holding it across a network write, a
// Pacer.Wait, a channel operation or a bare select stalls every other
// goroutine contending for the state — on the live paths that is a
// head-of-line blocking bug the race detector cannot see.
//
// The pass runs a forward may-analysis over the lintkit CFG: the fact
// is the set of mutexes held on some path, Lock/RLock add a key,
// Unlock/RUnlock remove it, and any blocking operation reached with a
// non-empty held set is reported. Blocking-ness is interprocedural:
// besides the intrinsic list (time.Sleep, netem Pacer.Wait, sync
// WaitGroup.Wait, net reads/writes/accepts/dials, http round trips,
// io.Copy/ReadFull/ReadAll, channel sends/receives/ranges and select
// without default), a module-local function is blocking when its body
// may reach any of those, computed bottom-up over the call graph.
//
// sync.Cond.Wait is the special case: it atomically releases the mutex
// while parked, so holding the lock there is correct and required —
// instead the pass reports Cond.Wait when *no* lock is held.
//
// Function literals are analyzed as separate function bodies with an
// empty held set: a literal generally runs on another goroutine (go,
// defer, callbacks), where the enclosing critical section does not
// apply.
package lockheld

import (
	"bytes"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"

	"repro/tools/analyzers/lintkit"
)

// DefaultPackages are the layers with lock-guarded hot paths.
var DefaultPackages = []string{
	"internal/transport",
	"internal/netem",
	"internal/obs",
}

// Analyzer is the lockheld pass.
var Analyzer = &lintkit.Analyzer{
	Name: "lockheld",
	Doc: "Reports sync.Mutex/RWMutex locks held across blocking " +
		"operations (network I/O, pacing sleeps, channel operations, " +
		"select) and sync.Cond.Wait calls made without any lock held. " +
		"Blocking-ness of module-local callees is resolved through " +
		"bottom-up call-graph summaries.",
	Packages: DefaultPackages,
	Run:      run,
}

// blockingIntrinsics are the out-of-module calls assumed to park the
// goroutine.
var blockingIntrinsics = []struct {
	m    lintkit.FuncMatch
	desc string
}{
	{lintkit.FuncMatch{Path: "time", Name: "Sleep"}, "time.Sleep"},
	{lintkit.FuncMatch{Path: "internal/netem", Recv: "Pacer", Name: "Wait"}, "netem.Pacer.Wait"},
	{lintkit.FuncMatch{Path: "sync", Recv: "WaitGroup", Name: "Wait"}, "sync.WaitGroup.Wait"},
	{lintkit.FuncMatch{Path: "net", Recv: "Conn", Name: "Read"}, "net.Conn.Read"},
	{lintkit.FuncMatch{Path: "net", Recv: "Conn", Name: "Write"}, "net.Conn.Write"},
	// *net.UDPConn/TCPConn promote Read/Write from the unexported
	// embedded net.conn; the resolved method's receiver is that type.
	{lintkit.FuncMatch{Path: "net", Recv: "conn", Name: "Read"}, "net.Conn.Read"},
	{lintkit.FuncMatch{Path: "net", Recv: "conn", Name: "Write"}, "net.Conn.Write"},
	{lintkit.FuncMatch{Path: "net", Recv: "UDPConn", Name: "Read"}, "net.UDPConn.Read"},
	{lintkit.FuncMatch{Path: "net", Recv: "UDPConn", Name: "Write"}, "net.UDPConn.Write"},
	{lintkit.FuncMatch{Path: "net", Recv: "UDPConn", Name: "ReadFrom"}, "net.UDPConn.ReadFrom"},
	{lintkit.FuncMatch{Path: "net", Recv: "UDPConn", Name: "ReadFromUDP"}, "net.UDPConn.ReadFromUDP"},
	{lintkit.FuncMatch{Path: "net", Recv: "UDPConn", Name: "ReadFromUDPAddrPort"}, "net.UDPConn.ReadFromUDPAddrPort"},
	{lintkit.FuncMatch{Path: "net", Recv: "UDPConn", Name: "WriteTo"}, "net.UDPConn.WriteTo"},
	{lintkit.FuncMatch{Path: "net", Recv: "UDPConn", Name: "WriteToUDP"}, "net.UDPConn.WriteToUDP"},
	{lintkit.FuncMatch{Path: "net", Recv: "UDPConn", Name: "WriteToUDPAddrPort"}, "net.UDPConn.WriteToUDPAddrPort"},
	{lintkit.FuncMatch{Path: "net", Recv: "TCPConn", Name: "Read"}, "net.TCPConn.Read"},
	{lintkit.FuncMatch{Path: "net", Recv: "TCPConn", Name: "Write"}, "net.TCPConn.Write"},
	{lintkit.FuncMatch{Path: "net", Recv: "Listener", Name: "Accept"}, "net.Listener.Accept"},
	{lintkit.FuncMatch{Path: "net", Recv: "TCPListener", Name: "Accept"}, "net.TCPListener.Accept"},
	{lintkit.FuncMatch{Path: "net", Name: "Dial"}, "net.Dial"},
	{lintkit.FuncMatch{Path: "net", Name: "DialTimeout"}, "net.DialTimeout"},
	{lintkit.FuncMatch{Path: "net", Name: "Listen"}, "net.Listen"},
	{lintkit.FuncMatch{Path: "net", Name: "ListenPacket"}, "net.ListenPacket"},
	{lintkit.FuncMatch{Path: "net", Name: "ListenUDP"}, "net.ListenUDP"},
	{lintkit.FuncMatch{Path: "net/http", Recv: "Client", Name: "Do"}, "http.Client.Do"},
	{lintkit.FuncMatch{Path: "net/http", Recv: "Client", Name: "Get"}, "http.Client.Get"},
	{lintkit.FuncMatch{Path: "net/http", Recv: "Client", Name: "Post"}, "http.Client.Post"},
	{lintkit.FuncMatch{Path: "net/http", Name: "Get"}, "http.Get"},
	{lintkit.FuncMatch{Path: "net/http", Name: "Post"}, "http.Post"},
	{lintkit.FuncMatch{Path: "net/http", Recv: "ResponseWriter", Name: "Write"}, "http.ResponseWriter.Write"},
	{lintkit.FuncMatch{Path: "io", Name: "Copy"}, "io.Copy"},
	{lintkit.FuncMatch{Path: "io", Name: "CopyN"}, "io.CopyN"},
	{lintkit.FuncMatch{Path: "io", Name: "ReadFull"}, "io.ReadFull"},
	{lintkit.FuncMatch{Path: "io", Name: "ReadAll"}, "io.ReadAll"},
}

var condWait = lintkit.FuncMatch{Path: "sync", Recv: "Cond", Name: "Wait"}

func run(pass *lintkit.Pass) error {
	if pass.Prog == nil {
		return nil
	}
	blocking := blockSummaries(pass.Prog)
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkBody(pass, blocking, fd.Body)
			// Every literal is its own concurrent body.
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					checkBody(pass, blocking, lit.Body)
				}
				return true
			})
		}
	}
	return nil
}

// lockKey identifies one mutex: the root variable plus the selector
// path, so s.mu and t.mu are distinct even when s and t alias the same
// struct type.
type lockKey struct {
	root types.Object
	path string
}

// event is one lock-relevant action inside a CFG node, in source order.
type event struct {
	kind eventKind
	pos  token.Pos
	key  lockKey // lock/unlock events
	desc string  // blocking events
}

type eventKind int

const (
	evLock eventKind = iota
	evUnlock
	evBlock
	evCondWait
)

// lockFlow implements the may-held analysis for one body.
type lockFlow struct {
	pass     *lintkit.Pass
	blocking map[*types.Func]string
	report   bool
	// skip holds the direct channel ops of select clause comm
	// statements; see selectCommOps.
	skip map[ast.Node]bool
}

// selectCommOps returns the direct channel operations of select clause
// comm statements. They execute only after the select has chosen their
// clause — when the channel is already ready — so the park point is the
// select header, not the op itself; counting them separately turns
// every non-blocking poll (select with default) into a false positive.
func selectCommOps(body ast.Node) map[ast.Node]bool {
	skip := map[ast.Node]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectStmt)
		if !ok {
			return true
		}
		for _, c := range sel.Body.List {
			cc, ok := c.(*ast.CommClause)
			if !ok || cc.Comm == nil {
				continue
			}
			switch comm := cc.Comm.(type) {
			case *ast.SendStmt:
				skip[comm] = true
			case *ast.ExprStmt:
				if u, ok := ast.Unparen(comm.X).(*ast.UnaryExpr); ok && u.Op == token.ARROW {
					skip[u] = true
				}
			case *ast.AssignStmt:
				if len(comm.Rhs) == 1 {
					if u, ok := ast.Unparen(comm.Rhs[0]).(*ast.UnaryExpr); ok && u.Op == token.ARROW {
						skip[u] = true
					}
				}
			}
		}
		return true
	})
	return skip
}

type lockFact map[lockKey]token.Pos

func (p *lockFlow) EntryFact() lintkit.Fact { return lockFact{} }

func (p *lockFlow) Clone(f lintkit.Fact) lintkit.Fact {
	n := lockFact{}
	for k, v := range f.(lockFact) {
		n[k] = v
	}
	return n
}

func (p *lockFlow) Join(a, b lintkit.Fact) lintkit.Fact {
	x, y := a.(lockFact), b.(lockFact)
	for k, v := range y {
		if _, ok := x[k]; !ok {
			x[k] = v
		}
	}
	return x
}

func (p *lockFlow) Equal(a, b lintkit.Fact) bool {
	x, y := a.(lockFact), b.(lockFact)
	if len(x) != len(y) {
		return false
	}
	for k := range x {
		if _, ok := y[k]; !ok {
			return false
		}
	}
	return true
}

func (p *lockFlow) TransferEdge(e *lintkit.Edge, f lintkit.Fact) lintkit.Fact { return f }

func (p *lockFlow) Transfer(n ast.Node, f lintkit.Fact) lintkit.Fact {
	held := f.(lockFact)
	for _, ev := range p.events(n) {
		switch ev.kind {
		case evLock:
			held[ev.key] = ev.pos
		case evUnlock:
			delete(held, ev.key)
		case evBlock:
			if p.report && len(held) > 0 {
				p.pass.Reportf(ev.pos, "%s held across blocking %s", heldNames(held), ev.desc)
			}
		case evCondWait:
			// Cond.Wait releases its mutex while parked: holding the
			// lock is required, holding none is the bug.
			if p.report && len(held) == 0 {
				p.pass.Reportf(ev.pos, "sync.Cond.Wait called without holding any lock (Wait requires its c.L to be held)")
			}
		}
	}
	return held
}

func heldNames(held lockFact) string {
	// Deterministic order for stable diagnostics.
	var names []string
	for k := range held {
		names = append(names, k.path)
	}
	for i := range names {
		for j := i + 1; j < len(names); j++ {
			if names[j] < names[i] {
				names[i], names[j] = names[j], names[i]
			}
		}
	}
	out := ""
	for i, n := range names {
		if i > 0 {
			out += ", "
		}
		out += n
	}
	return out
}

// checkBody solves the analysis for one body, then reports in a single
// deterministic visit over the solved block facts.
func checkBody(pass *lintkit.Pass, blocking map[*types.Func]string, body *ast.BlockStmt) {
	cfg := lintkit.BuildCFG(body)
	p := &lockFlow{pass: pass, blocking: blocking, skip: selectCommOps(body)}
	in := lintkit.Solve(cfg, p)
	p.report = true
	for _, b := range cfg.Blocks {
		f, ok := in[b]
		if !ok {
			continue
		}
		f = p.Clone(f)
		for _, n := range b.Nodes {
			f = p.Transfer(n, f)
		}
	}
}

// events extracts the lock-relevant actions of one CFG node in source
// order. It respects the CFG's decomposition: range headers contribute
// only their ranged expression, case clause headers only their guard
// expressions, select headers only their blocking-ness, and function
// literals are never descended into (they are separate bodies).
func (p *lockFlow) events(n ast.Node) []event {
	var evs []event
	switch n := n.(type) {
	case *ast.RangeStmt:
		evs = p.exprEvents(n.X, nil)
		// Ranging over a channel parks between messages.
		if t := p.pass.TypesInfo.Types[n.X].Type; t != nil {
			if _, ok := t.Underlying().(*types.Chan); ok {
				evs = append(evs, event{kind: evBlock, pos: n.Pos(), desc: "receive (range over channel)"})
			}
		}
		return evs
	case *ast.CaseClause:
		for _, e := range n.List {
			evs = append(evs, p.exprEvents(e, nil)...)
		}
		return evs
	case *ast.SelectStmt:
		for _, c := range n.Body.List {
			if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
				return nil // default clause: never parks
			}
		}
		return []event{{kind: evBlock, pos: n.Pos(), desc: "select with no default clause"}}
	case *ast.GoStmt:
		// Arguments are evaluated synchronously; the call itself runs
		// on the new goroutine.
		for _, a := range n.Call.Args {
			evs = append(evs, p.exprEvents(a, nil)...)
		}
		return evs
	case *ast.DeferStmt:
		// Argument evaluation is synchronous; the call runs at return,
		// where the critical section's extent is unknowable statically.
		for _, a := range n.Call.Args {
			evs = append(evs, p.exprEvents(a, nil)...)
		}
		return evs
	case *ast.SendStmt:
		evs = append(evs, p.exprEvents(n.Chan, nil)...)
		evs = append(evs, p.exprEvents(n.Value, nil)...)
		if p.skip[n] {
			return evs // select clause comm op: the select header parks
		}
		return append(evs, event{kind: evBlock, pos: n.Pos(), desc: "channel send"})
	case ast.Node:
		return p.exprEvents(n, nil)
	}
	return evs
}

// exprEvents walks an arbitrary subtree in source order, skipping
// function literals and nested statements the CFG placed elsewhere.
func (p *lockFlow) exprEvents(n ast.Node, evs []event) []event {
	if n == nil {
		return evs
	}
	ast.Inspect(n, func(c ast.Node) bool {
		switch c := c.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SelectStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt,
			*ast.IfStmt, *ast.ForStmt, *ast.RangeStmt:
			// Decomposed by the CFG; only reachable here when nested
			// inside an expression via a literal, which is already
			// excluded — defensive.
			return false
		case *ast.UnaryExpr:
			if c.Op == token.ARROW {
				evs = append(evs, p.exprEvents(c.X, nil)...)
				if !p.skip[c] {
					evs = append(evs, event{kind: evBlock, pos: c.Pos(), desc: "channel receive"})
				}
				return false
			}
		case *ast.CallExpr:
			for _, a := range c.Args {
				evs = p.exprEvents(a, evs)
			}
			if sel, ok := ast.Unparen(c.Fun).(*ast.SelectorExpr); ok {
				evs = p.exprEvents(sel.X, evs)
			}
			evs = append(evs, p.callEvents(c)...)
			return false
		}
		return true
	})
	return evs
}

// callEvents classifies one resolved call.
func (p *lockFlow) callEvents(call *ast.CallExpr) []event {
	fn := lintkit.FuncForCall(p.pass.TypesInfo, call)
	if fn == nil {
		return nil // function value / conversion: assumed non-blocking (documented under-approximation)
	}
	if k, kind, ok := p.lockOp(call, fn); ok {
		return []event{{kind: kind, pos: call.Pos(), key: k}}
	}
	if condWait.Matches(fn) {
		return []event{{kind: evCondWait, pos: call.Pos()}}
	}
	for _, b := range blockingIntrinsics {
		if b.m.Matches(fn) {
			return []event{{kind: evBlock, pos: call.Pos(), desc: "call to " + b.desc}}
		}
	}
	if desc, ok := p.blocking[fn]; ok {
		return []event{{kind: evBlock, pos: call.Pos(), desc: "call to " + fn.Name() + " (may block: " + desc + ")"}}
	}
	return nil
}

// lockOp recognizes Lock/RLock/Unlock/RUnlock on sync.Mutex/RWMutex
// receivers (including embedded ones) and derives the lock key from the
// receiver expression.
func (p *lockFlow) lockOp(call *ast.CallExpr, fn *types.Func) (lockKey, eventKind, bool) {
	if fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return lockKey{}, 0, false
	}
	var kind eventKind
	switch fn.Name() {
	case "Lock", "RLock":
		kind = evLock
	case "Unlock", "RUnlock":
		kind = evUnlock
	default:
		return lockKey{}, 0, false
	}
	recv := recvName(fn)
	if recv != "Mutex" && recv != "RWMutex" {
		return lockKey{}, 0, false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return lockKey{}, 0, false
	}
	key, ok := p.keyFor(sel.X)
	if !ok {
		return lockKey{}, 0, false
	}
	return key, kind, true
}

func recvName(fn *types.Func) string {
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

// keyFor renders a lock expression to (root object, path text).
func (p *lockFlow) keyFor(e ast.Expr) (lockKey, bool) {
	root := rootIdent(e)
	if root == nil {
		return lockKey{}, false
	}
	obj := p.pass.TypesInfo.Uses[root]
	if obj == nil {
		obj = p.pass.TypesInfo.Defs[root]
	}
	if obj == nil {
		return lockKey{}, false
	}
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, token.NewFileSet(), e); err != nil {
		return lockKey{root: obj, path: root.Name}, true
	}
	return lockKey{root: obj, path: buf.String()}, true
}

func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.UnaryExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// blockSummaries computes, bottom-up over the module call graph, which
// module-local functions may block, with a short description of why.
type blockCacheKey struct{}

func blockSummaries(prog *lintkit.Program) map[*types.Func]string {
	v := prog.Cache(blockCacheKey{}, func() any {
		sums := make(map[*types.Func]string)
		cg := lintkit.BuildCallGraph(prog)
		for _, scc := range cg.BottomUp() {
			// Iterate the component: mutual recursion settles in at
			// most two rounds for a boolean property.
			for changed := true; changed; {
				changed = false
				for _, fn := range scc {
					if _, done := sums[fn]; done {
						continue
					}
					src := prog.Source(fn)
					if src == nil {
						continue
					}
					if why, blocks := bodyMayBlock(src, sums); blocks {
						sums[fn] = why
						changed = true
					}
				}
			}
		}
		return sums
	})
	return v.(map[*types.Func]string)
}

// bodyMayBlock scans one declaration (excluding literals, which run on
// their own goroutines) for intrinsic blocking operations or calls to
// already-summarized blocking functions.
func bodyMayBlock(src *lintkit.FuncSource, sums map[*types.Func]string) (string, bool) {
	why := ""
	skip := selectCommOps(src.Decl.Body)
	ast.Inspect(src.Decl.Body, func(n ast.Node) bool {
		if why != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.GoStmt:
			return false // the call runs asynchronously
		case *ast.DeferStmt:
			return false // runs at return, outside the caller's view
		case *ast.SendStmt:
			if skip[n] {
				return true // select clause comm op: the select parks, not the send
			}
			why = "channel send"
			return false
		case *ast.RangeStmt:
			if t := src.Pkg.Info.Types[n.X].Type; t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					why = "range over channel"
					return false
				}
			}
		case *ast.SelectStmt:
			hasDefault := false
			for _, c := range n.Body.List {
				if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
					hasDefault = true
				}
			}
			if !hasDefault {
				why = "select"
				return false
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && !skip[n] {
				why = "channel receive"
				return false
			}
		case *ast.CallExpr:
			fn := lintkit.FuncForCall(src.Pkg.Info, n)
			if fn == nil {
				return true
			}
			if condWait.Matches(fn) {
				why = "sync.Cond.Wait"
				return false
			}
			for _, b := range blockingIntrinsics {
				if b.m.Matches(fn) {
					why = b.desc
					return false
				}
			}
			if sub, ok := sums[fn]; ok {
				why = fn.Name() + ": " + sub
				return false
			}
		}
		return true
	})
	return why, why != ""
}
