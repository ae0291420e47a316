// Package lockflow is the may-held lock analysis shared by the lockheld
// and lockorder passes. It extracts the lock-relevant events of one
// function body in source order — Lock/RLock and Unlock/RUnlock on
// sync.Mutex and sync.RWMutex, other resolved calls, and the channel
// operations and selects that park the goroutine — and solves, over the
// lintkit CFG, which mutexes may be held before each of them. The
// passes differ only in what they make of the events: lockheld reports
// calls and parks that may block under a held lock, lockorder turns
// acquisitions under a held lock into lock-order edges.
package lockflow

import (
	"bytes"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
	"path/filepath"
	"strconv"

	"repro/tools/analyzers/lintkit"
)

// Key identifies one mutex instance inside a body: the root variable
// plus the selector path, so s.mu and t.mu are distinct even when s and
// t share a type.
type Key struct {
	Root types.Object
	Path string
}

// Class abstracts one mutex to the named type owning the field plus the
// field name (ingestShard.mu), the package for a package-level variable
// (transport.statsMu), or the declaration site for a local
// (bufMu@live_udp.go:560). The zero Class means none could be derived.
type Class struct{ Owner, Field string }

func (c Class) String() string {
	if c.Owner == "" {
		return c.Field
	}
	return c.Owner + "." + c.Field
}

// Held is the may-held fact: every mutex held on some path into a
// program point, with its class.
type Held map[Key]Class

// Kind classifies an Event.
type Kind int

const (
	// Lock and Unlock are mutex operations; Key and Class name the
	// mutex.
	Lock Kind = iota
	Unlock
	// Call is any other call that resolves to a declared function or
	// method (Fn); calls through function values have no event.
	Call
	// Park is a channel send, receive or range, or a select without a
	// default clause; Desc says which.
	Park
)

// Event is one lock-relevant action inside a CFG node.
type Event struct {
	Kind  Kind
	Pos   token.Pos
	Key   Key
	Class Class
	Fn    *types.Func
	Desc  string
}

// Walk solves the may-held analysis over body, then replays every
// reachable block once, in block order, calling visit with each event
// and the mutexes held just before it. visit must not keep held. The
// walk respects the CFG's decomposition — range headers contribute
// only their ranged expression, case clauses their guards, go and
// defer statements their synchronously evaluated arguments — and never
// enters function literals, which are separate bodies.
func Walk(fset *token.FileSet, info *types.Info, body *ast.BlockStmt, visit func(ev Event, held Held)) {
	w := &walker{fset: fset, info: info, skip: SelectCommOps(body)}
	cfg := lintkit.BuildCFG(body)
	in := lintkit.Solve(cfg, w)
	for _, b := range cfg.Blocks {
		f, ok := in[b]
		if !ok {
			continue
		}
		held := w.Clone(f).(Held)
		for _, n := range b.Nodes {
			for _, ev := range w.events(n) {
				visit(ev, held)
				held.apply(ev)
			}
		}
	}
}

func (h Held) apply(ev Event) {
	switch ev.Kind {
	case Lock:
		h[ev.Key] = ev.Class
	case Unlock:
		delete(h, ev.Key)
	}
}

// SelectCommOps returns the direct channel operations of select clause
// comm statements in body. They execute only after the select has
// chosen their clause — when the channel is already ready — so the
// park point is the select header, not the op itself; counting them
// separately turns every non-blocking poll (select with default) into
// a false positive.
func SelectCommOps(body ast.Node) map[ast.Node]bool {
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

// walker is the forward may-held flow problem over one body.
type walker struct {
	fset *token.FileSet
	info *types.Info
	// skip holds the direct channel ops of select clause comm
	// statements; see SelectCommOps.
	skip map[ast.Node]bool
}

func (w *walker) EntryFact() lintkit.Fact { return Held{} }

func (w *walker) Clone(f lintkit.Fact) lintkit.Fact {
	n := Held{}
	for k, v := range f.(Held) {
		n[k] = v
	}
	return n
}

func (w *walker) Join(a, b lintkit.Fact) lintkit.Fact {
	x, y := a.(Held), b.(Held)
	for k, v := range y {
		if _, ok := x[k]; !ok {
			x[k] = v
		}
	}
	return x
}

func (w *walker) Equal(a, b lintkit.Fact) bool {
	x, y := a.(Held), b.(Held)
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

func (w *walker) TransferEdge(e *lintkit.Edge, f lintkit.Fact) lintkit.Fact { return f }

func (w *walker) Transfer(n ast.Node, f lintkit.Fact) lintkit.Fact {
	held := f.(Held)
	for _, ev := range w.events(n) {
		held.apply(ev)
	}
	return held
}

// events extracts the events of one CFG node in source order.
func (w *walker) events(n ast.Node) []Event {
	var evs []Event
	switch n := n.(type) {
	case *ast.RangeStmt:
		evs = w.exprEvents(n.X, nil)
		// Ranging over a channel parks between messages.
		if t := w.info.Types[n.X].Type; t != nil {
			if _, ok := t.Underlying().(*types.Chan); ok {
				evs = append(evs, Event{Kind: Park, Pos: n.Pos(), Desc: "receive (range over channel)"})
			}
		}
	case *ast.CaseClause:
		for _, e := range n.List {
			evs = w.exprEvents(e, evs)
		}
	case *ast.SelectStmt:
		for _, c := range n.Body.List {
			if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
				return nil // default clause: never parks
			}
		}
		evs = []Event{{Kind: Park, Pos: n.Pos(), Desc: "select with no default clause"}}
	case *ast.GoStmt:
		// Arguments are evaluated synchronously; the call itself runs
		// on the new goroutine.
		for _, a := range n.Call.Args {
			evs = w.exprEvents(a, evs)
		}
	case *ast.DeferStmt:
		// Argument evaluation is synchronous; the deferred call itself
		// is replayed in the CFG exit block.
		for _, a := range n.Call.Args {
			evs = w.exprEvents(a, evs)
		}
	case *ast.SendStmt:
		evs = w.exprEvents(n.Chan, nil)
		evs = w.exprEvents(n.Value, evs)
		if !w.skip[n] { // a select clause comm op: the select header parks
			evs = append(evs, Event{Kind: Park, Pos: n.Pos(), Desc: "channel send"})
		}
	default:
		evs = w.exprEvents(n, nil)
	}
	return evs
}

// exprEvents appends the events of a subtree in source order, skipping
// function literals and the statements the CFG placed elsewhere.
func (w *walker) exprEvents(n ast.Node, evs []Event) []Event {
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
				evs = w.exprEvents(c.X, evs)
				if !w.skip[c] {
					evs = append(evs, Event{Kind: Park, Pos: c.Pos(), Desc: "channel receive"})
				}
				return false
			}
		case *ast.CallExpr:
			for _, a := range c.Args {
				evs = w.exprEvents(a, evs)
			}
			if sel, ok := ast.Unparen(c.Fun).(*ast.SelectorExpr); ok {
				evs = w.exprEvents(sel.X, evs)
			}
			fn := lintkit.FuncForCall(w.info, c)
			if fn == nil {
				return false // function value or conversion: no event (documented under-approximation)
			}
			if ev, ok := LockOp(w.fset, w.info, c, fn); ok {
				evs = append(evs, ev)
			} else {
				evs = append(evs, Event{Kind: Call, Pos: c.Pos(), Fn: fn})
			}
			return false
		}
		return true
	})
	return evs
}

// LockOp recognizes a call of fn as Lock/RLock/Unlock/RUnlock on a
// sync.Mutex or sync.RWMutex receiver (embedded ones included) and
// derives the mutex's Key and, where it can, its Class. It fails when
// the receiver expression has no root variable.
func LockOp(fset *token.FileSet, info *types.Info, call *ast.CallExpr, fn *types.Func) (Event, bool) {
	if fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return Event{}, false
	}
	var kind Kind
	switch fn.Name() {
	case "Lock", "RLock":
		kind = Lock
	case "Unlock", "RUnlock":
		kind = Unlock
	default:
		return Event{}, false
	}
	if r := lintkit.RecvName(fn); r != "Mutex" && r != "RWMutex" {
		return Event{}, false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return Event{}, false
	}
	key, ok := keyFor(info, sel.X)
	if !ok {
		return Event{}, false
	}
	return Event{Kind: kind, Pos: call.Pos(), Key: key, Class: classFor(fset, info, sel.X)}, true
}

// keyFor renders a lock expression to (root object, path text).
func keyFor(info *types.Info, e ast.Expr) (Key, bool) {
	root := rootIdent(e)
	if root == nil {
		return Key{}, false
	}
	obj := info.Uses[root]
	if obj == nil {
		obj = info.Defs[root]
	}
	if obj == nil {
		return Key{}, false
	}
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, token.NewFileSet(), e); err != nil {
		return Key{Root: obj, Path: root.Name}, true
	}
	return Key{Root: obj, Path: buf.String()}, true
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

// classFor abstracts a lock expression to its Class, or the zero Class
// when the owner of a selected field is not a named type.
func classFor(fset *token.FileSet, info *types.Info, e ast.Expr) Class {
	e = ast.Unparen(e)
	for {
		if s, ok := e.(*ast.StarExpr); ok {
			e = ast.Unparen(s.X)
			continue
		}
		if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
			e = ast.Unparen(u.X)
			continue
		}
		break
	}
	switch x := e.(type) {
	case *ast.SelectorExpr:
		if t := info.Types[x.X].Type; t != nil {
			if ptr, ok := t.(*types.Pointer); ok {
				t = ptr.Elem()
			}
			if named, ok := t.(*types.Named); ok {
				return Class{Owner: named.Obj().Name(), Field: x.Sel.Name}
			}
		}
	case *ast.Ident:
		obj := info.Uses[x]
		if obj == nil {
			obj = info.Defs[x]
		}
		if obj == nil {
			return Class{}
		}
		if obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
			return Class{Owner: obj.Pkg().Name(), Field: x.Name}
		}
		return Class{Field: x.Name + "@" + Where(fset, obj.Pos())}
	}
	return Class{}
}

// Where renders pos as file:line with the file's base name.
func Where(fset *token.FileSet, pos token.Pos) string {
	p := fset.Position(pos)
	return filepath.Base(p.Filename) + ":" + strconv.Itoa(p.Line)
}
