// Package auditemit proves audit completeness: every security-relevant
// decision the transport takes must leave a record in the tamper-
// evident ledger. It is the dual of plainleak — plainleak proves
// nothing secret leaves without authorization, auditemit proves
// nothing authorized happens without a trace.
//
// A trigger is a site that takes one of the audited decisions: bumping
// the policy-downgrade or re-encode counters, rejecting an admission,
// starting, finishing or evicting an ingest session (recognized as an
// Inc() on the corresponding package-level obs counter), or minting a
// fresh resume epoch (a call to nextEpoch). Each trigger demands a
// ledger.Emit of the matching EventType either in the trigger's own
// basic block or on every path from the trigger to the function's
// exit — a backward must-analysis over the lintkit CFG, intersecting
// across successors. Emission is interprocedural: a bottom-up summary
// records which event kinds each module-local function emits on every
// path, so delegating the Emit to a helper satisfies the trigger.
//
// Only ledger.Emit calls whose first argument is a constant
// ledger.EventX selector count; an Emit through a variable kind
// satisfies nothing (a documented under-approximation that keeps the
// proof honest). Deferred Emits count — the CFG replays deferred calls
// in the exit block, which every path reaches.
package auditemit

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/tools/analyzers/lintkit"
)

// DefaultPackages is where the audited decisions live.
var DefaultPackages = []string{"internal/transport"}

// Analyzer is the auditemit pass.
var Analyzer = &lintkit.Analyzer{
	Name: "auditemit",
	Doc: "Reports audited decisions (policy downgrade, re-encode " +
		"restart, epoch bump, admission reject, session " +
		"start/finish/evict) that are not matched by a ledger.Emit of " +
		"the corresponding EventType in the same block or on every " +
		"path to the function exit. Emits made inside module-local " +
		"helpers are credited through bottom-up must-emit summaries.",
	Packages: DefaultPackages,
	Run:      run,
}

// kinds is the EventType universe as a bitmask; the names match the
// ledger constants.
var kindNames = []string{
	"EventPolicy",
	"EventPlainPacket",
	"EventHeaderOnly",
	"EventDowngrade",
	"EventReencode",
	"EventEpoch",
	"EventSessionStart",
	"EventSessionEnd",
	"EventEvict",
	"EventReject",
}

type kindSet uint16

func kindBit(name string) (kindSet, bool) {
	for i, n := range kindNames {
		if n == name {
			return 1 << uint(i), true
		}
	}
	return 0, false
}

func (s kindSet) name() string {
	for i, n := range kindNames {
		if s == 1<<uint(i) {
			return n
		}
	}
	return "?"
}

var universe = kindSet(1<<uint(len(kindNames))) - 1

// counterTriggers maps package-level obs counter names to the event
// kind their bump must be audited with.
var counterTriggers = []struct {
	counter string
	kind    string
	desc    string
}{
	{"mUploadDowngrades", "EventDowngrade", "policy downgrade"},
	{"mUploadRestarts", "EventReencode", "re-encode restart"},
	{"mIngestRejected", "EventReject", "admission rejection"},
	{"mIngestSessionsStarted", "EventSessionStart", "session admission"},
	{"mIngestSessionsFinished", "EventSessionEnd", "session finish"},
	{"mIngestSessionsEvicted", "EventEvict", "session eviction"},
}

var (
	ledgerEmit = lintkit.FuncMatch{Path: "internal/ledger", Name: "Emit"}
	epochMint  = lintkit.FuncMatch{Path: "internal/transport", Name: "nextEpoch"}
)

func run(pass *lintkit.Pass) error {
	if pass.Prog == nil {
		return nil
	}
	sums := emitSummaries(pass.Prog)
	lintkit.ForEachBody(pass.Files, func(_ ast.Node, body *ast.BlockStmt) {
		checkBody(pass, sums, body)
	})
	return nil
}

// trigger is one audited decision site.
type trigger struct {
	pos  token.Pos
	kind kindSet
	desc string
}

// checkBody runs the backward must-emit analysis over one body and
// reports every trigger whose required kind is neither emitted in its
// own block nor guaranteed on all paths ahead.
func checkBody(pass *lintkit.Pass, sums map[*types.Func]kindSet, body *ast.BlockStmt) {
	cfg := lintkit.BuildCFG(body)
	sc := &scanner{info: pass.TypesInfo, sums: sums}
	blockKinds := make([]kindSet, len(cfg.Blocks))
	blockTriggers := make([][]trigger, len(cfg.Blocks))
	any := false
	for _, b := range cfg.Blocks {
		for _, n := range b.Nodes {
			blockKinds[b.Index] |= sc.nodeKinds(n)
			ts := sc.nodeTriggers(n)
			blockTriggers[b.Index] = append(blockTriggers[b.Index], ts...)
			any = any || len(ts) > 0
		}
	}
	if !any {
		return
	}
	mustIn := solveMustEmit(cfg, blockKinds)
	for _, b := range cfg.Blocks {
		// Guaranteed kinds at any point of b: emitted somewhere in this
		// straight-line block, or on every path after it.
		out := universe
		if len(b.Succs) == 0 {
			out = 0
		}
		for _, e := range b.Succs {
			out &= mustIn[e.To.Index]
		}
		have := blockKinds[b.Index] | out
		for _, tr := range blockTriggers[b.Index] {
			if tr.kind&have == 0 {
				pass.Reportf(tr.pos, "%s is not audited: no ledger.Emit(ledger.%s) in this block or on every path to the function exit", tr.desc, tr.kind.name())
			}
		}
	}
}

// solveMustEmit computes, per block, the kinds guaranteed to be
// emitted between the block's entry and the function exit — a backward
// intersection fixpoint, optimistically initialized to the universe.
func solveMustEmit(cfg *lintkit.CFG, blockKinds []kindSet) []kindSet {
	mustIn := make([]kindSet, len(cfg.Blocks))
	for i := range mustIn {
		mustIn[i] = universe
	}
	for changed := true; changed; {
		changed = false
		for _, b := range cfg.Blocks {
			out := universe
			if len(b.Succs) == 0 {
				out = 0
			}
			for _, e := range b.Succs {
				out &= mustIn[e.To.Index]
			}
			in := blockKinds[b.Index] | out
			if in != mustIn[b.Index] {
				mustIn[b.Index] = in
				changed = true
			}
		}
	}
	return mustIn
}

// scanner extracts per-node emitted kinds and triggers, respecting the
// CFG decomposition (range headers contribute their ranged expression,
// case clauses their guards, go statements only their argument
// expressions — a spawned goroutine's Emit is not sequenced before the
// trigger's paths) and never descending into function literals.
type scanner struct {
	info *types.Info
	sums map[*types.Func]kindSet
}

func (s *scanner) nodeKinds(n ast.Node) kindSet {
	var out kindSet
	s.walk(n, func(call *ast.CallExpr, fn *types.Func) {
		out |= s.callKinds(call, fn)
	})
	return out
}

func (s *scanner) nodeTriggers(n ast.Node) []trigger {
	var out []trigger
	s.walk(n, func(call *ast.CallExpr, fn *types.Func) {
		if tr, ok := s.callTrigger(call, fn); ok {
			out = append(out, tr)
		}
	})
	return out
}

func (s *scanner) walk(n ast.Node, visit func(*ast.CallExpr, *types.Func)) {
	switch n := n.(type) {
	case *ast.RangeStmt:
		s.walkExpr(n.X, visit)
	case *ast.CaseClause:
		for _, e := range n.List {
			s.walkExpr(e, visit)
		}
	case *ast.SelectStmt:
	case *ast.GoStmt:
		for _, a := range n.Call.Args {
			s.walkExpr(a, visit)
		}
	case *ast.DeferStmt:
		// The deferred call is replayed in the exit block; only the
		// argument expressions run here.
		for _, a := range n.Call.Args {
			s.walkExpr(a, visit)
		}
	case ast.Node:
		s.walkExpr(n, visit)
	}
}

func (s *scanner) walkExpr(n ast.Node, visit func(*ast.CallExpr, *types.Func)) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(c ast.Node) bool {
		switch c := c.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SelectStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt,
			*ast.IfStmt, *ast.ForStmt, *ast.RangeStmt:
			return false // decomposed by the CFG
		case *ast.CallExpr:
			for _, a := range c.Args {
				s.walkExpr(a, visit)
			}
			if sel, ok := ast.Unparen(c.Fun).(*ast.SelectorExpr); ok {
				s.walkExpr(sel.X, visit)
			}
			if fn := lintkit.FuncForCall(s.info, c); fn != nil {
				visit(c, fn)
			}
			return false
		}
		return true
	})
}

// callKinds returns the kinds this call is guaranteed to emit: a
// direct ledger.Emit with a constant kind, or a module-local helper's
// must-emit summary.
func (s *scanner) callKinds(call *ast.CallExpr, fn *types.Func) kindSet {
	if ledgerEmit.Matches(fn) {
		if len(call.Args) > 0 {
			if bit, ok := constKindOf(s.info, call.Args[0]); ok {
				return bit
			}
		}
		return 0
	}
	return s.sums[fn]
}

// callTrigger recognizes audited decision sites.
func (s *scanner) callTrigger(call *ast.CallExpr, fn *types.Func) (trigger, bool) {
	if epochMint.Matches(fn) {
		bit, _ := kindBit("EventEpoch")
		return trigger{pos: call.Pos(), kind: bit, desc: "epoch bump (nextEpoch)"}, true
	}
	if fn.Name() != "Inc" {
		return trigger{}, false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return trigger{}, false
	}
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	if !ok {
		return trigger{}, false
	}
	obj := s.info.Uses[id]
	if obj == nil || obj.Pkg() == nil || obj.Parent() != obj.Pkg().Scope() {
		return trigger{}, false // not a package-level counter
	}
	if !lintkit.PathMatches(obj.Pkg().Path(), "internal/transport") {
		return trigger{}, false
	}
	for _, ct := range counterTriggers {
		if id.Name == ct.counter {
			bit, _ := kindBit(ct.kind)
			return trigger{pos: call.Pos(), kind: bit, desc: ct.desc + " (" + ct.counter + ".Inc)"}, true
		}
	}
	return trigger{}, false
}

// constKindOf resolves an Emit kind argument to its bit when it is a
// constant named EventX from the ledger package.
func constKindOf(info *types.Info, e ast.Expr) (kindSet, bool) {
	var id *ast.Ident
	switch x := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		id = x.Sel
	case *ast.Ident:
		id = x
	default:
		return 0, false
	}
	obj := info.Uses[id]
	cst, ok := obj.(*types.Const)
	if !ok || cst.Pkg() == nil || !lintkit.PathMatches(cst.Pkg().Path(), "internal/ledger") {
		return 0, false
	}
	return kindBit(cst.Name())
}

// --- bottom-up must-emit summaries ---

type emitCacheKey struct{}

// emitSummaries computes, bottom-up over the module call graph, the
// kinds each module-local function emits on every path from entry to
// exit. Summaries start empty, so recursion settles conservatively.
func emitSummaries(prog *lintkit.Program) map[*types.Func]kindSet {
	v := prog.Cache(emitCacheKey{}, func() any {
		return lintkit.SolveBottomUp(prog, 0, summarize, func(a, b kindSet) bool { return a == b })
	})
	return v.(map[*types.Func]kindSet)
}

func summarize(_ *types.Func, src *lintkit.FuncSource, sums map[*types.Func]kindSet) kindSet {
	cfg := lintkit.BuildCFG(src.Decl.Body)
	sc := &scanner{info: src.Pkg.Info, sums: sums}
	blockKinds := make([]kindSet, len(cfg.Blocks))
	for _, b := range cfg.Blocks {
		for _, n := range b.Nodes {
			blockKinds[b.Index] |= sc.nodeKinds(n)
		}
	}
	return solveMustEmit(cfg, blockKinds)[cfg.Entry.Index]
}
