// Package lockheld flags mutexes held across blocking operations. A
// lock that protects shared pacing or reassembly state must bound a
// short critical section; holding it across a network write, a
// Pacer.Wait, a channel operation or a bare select stalls every other
// goroutine contending for the state — on the live paths that is a
// head-of-line blocking bug the race detector cannot see.
//
// The pass runs the forward may-held analysis it shares with lockorder
// (passes/internal/lockflow) over the lintkit CFG: the fact is the set
// of mutexes held on some path, Lock/RLock add a key, Unlock/RUnlock
// remove it, and any blocking operation reached with a non-empty held
// set is reported. Blocking-ness is interprocedural:
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
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"repro/tools/analyzers/lintkit"
	"repro/tools/analyzers/passes/internal/lockflow"
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
	// Every literal is its own concurrent body.
	lintkit.ForEachBody(pass.Files, func(_ ast.Node, body *ast.BlockStmt) {
		checkBody(pass, blocking, body)
	})
	return nil
}

// checkBody reports, in one deterministic visit over the solved
// may-held facts of body, every blocking operation reached with a lock
// held and every sync.Cond.Wait reached with none.
func checkBody(pass *lintkit.Pass, blocking map[*types.Func]string, body *ast.BlockStmt) {
	lockflow.Walk(pass.Fset, pass.TypesInfo, body, func(ev lockflow.Event, held lockflow.Held) {
		desc := ""
		switch {
		case ev.Kind == lockflow.Park:
			desc = ev.Desc
		case ev.Kind != lockflow.Call:
			return
		case condWait.Matches(ev.Fn):
			// Cond.Wait releases its mutex while parked: holding the
			// lock is required, holding none is the bug.
			if len(held) == 0 {
				pass.Reportf(ev.Pos, "sync.Cond.Wait called without holding any lock (Wait requires its c.L to be held)")
			}
			return
		default:
			desc = callBlocks(ev.Fn, blocking)
		}
		if desc != "" && len(held) > 0 {
			pass.Reportf(ev.Pos, "%s held across blocking %s", heldNames(held), desc)
		}
	})
}

// callBlocks says why a call to fn may block, or returns "".
func callBlocks(fn *types.Func, blocking map[*types.Func]string) string {
	for _, b := range blockingIntrinsics {
		if b.m.Matches(fn) {
			return "call to " + b.desc
		}
	}
	if desc, ok := blocking[fn]; ok {
		return "call to " + fn.Name() + " (may block: " + desc + ")"
	}
	return ""
}

// heldNames lists the held locks' paths in sorted order, for stable
// diagnostics.
func heldNames(held lockflow.Held) string {
	names := make([]string, 0, len(held))
	for k := range held {
		names = append(names, k.Path)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// blockSummaries computes, bottom-up over the module call graph, which
// module-local functions may block, with a short description of why.
type blockCacheKey struct{}

func blockSummaries(prog *lintkit.Program) map[*types.Func]string {
	v := prog.Cache(blockCacheKey{}, func() any {
		// Blocking is a boolean property: once a function is found to
		// block, its first reason stands, so the descriptions of
		// mutually recursive functions cannot grow round after round.
		return lintkit.SolveBottomUp(prog, 0, func(fn *types.Func, src *lintkit.FuncSource, sums map[*types.Func]string) string {
			if why := sums[fn]; why != "" {
				return why
			}
			return bodyMayBlock(src, sums)
		}, func(a, b string) bool { return a == b })
	})
	return v.(map[*types.Func]string)
}

// bodyMayBlock scans one declaration (excluding literals, which run on
// their own goroutines) for intrinsic blocking operations or calls to
// already-summarized blocking functions, and says why it may block, or
// returns "".
func bodyMayBlock(src *lintkit.FuncSource, sums map[*types.Func]string) string {
	why := ""
	skip := lockflow.SelectCommOps(src.Decl.Body)
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
	return why
}
