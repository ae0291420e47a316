// Package lockorder proves a consistent module-wide lock-acquisition
// order. Every mutex is abstracted to a lock class — the named type
// that owns it plus the field name (ingestShard.mu), a package-level
// variable (transport.statsMu), or a declaration-site-qualified local
// (bufMu@live_udp.go:560) — and every acquisition made while another
// lock is held contributes a directed edge between the two classes.
// Calls are interprocedural: a bottom-up may-acquire summary records
// which classes each module-local function can lock, so holding A
// while calling a helper that locks B also adds A -> B. A cycle in the
// resulting graph is a potential deadlock: two goroutines can each
// hold one lock of the cycle and wait forever for the next.
//
// Intended orders are blessed with a declaration comment anywhere in
// an analyzed package:
//
//	//lint:lockorder ingestShard.mu -> ingestSession.mu (why this nesting is fixed)
//
// Declared edges join the graph, so reversing a documented order forms
// a two-node cycle and is reported at the reversing acquisition; the
// declared direction itself is never reported. Acquiring a lock while
// another lock of the same class is held is reported unconditionally —
// two instances of one class have no defined order.
//
// The analysis is the forward may-held analysis over the lintkit CFG
// that lockheld also runs (passes/internal/lockflow), so edges are
// "may" facts: a lock held on only one path into an acquisition still
// orders it. Function
// literals are analyzed as separate bodies with an empty held set, and
// locks taken inside literals are not attributed to the enclosing
// function's summary (a literal generally runs on another goroutine).
// Calls through function values or interface methods contribute no
// edges — a documented under-approximation.
package lockorder

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"strings"

	"repro/tools/analyzers/lintkit"
	"repro/tools/analyzers/passes/internal/lockflow"
)

// DefaultPackages are the layers whose bodies contribute edges and
// whose files may carry //lint:lockorder declarations. May-acquire
// summaries still cover the whole module, so holding a transport lock
// across a ledger or vcrypt call is ordered correctly.
var DefaultPackages = []string{
	"internal/transport",
	"internal/netem",
	"internal/obs",
}

// Analyzer is the lockorder pass.
var Analyzer = &lintkit.Analyzer{
	Name: "lockorder",
	Doc: "Builds the module-wide lock-acquisition graph (lock classes " +
		"are owner-type/field pairs; held-while-acquiring and " +
		"held-while-calling add edges via bottom-up may-acquire " +
		"summaries) and reports cycles — potential deadlocks — at " +
		"every acquisition that participates in one. Intended " +
		"nestings are declared with //lint:lockorder A -> B (reason).",
	Packages: DefaultPackages,
	Run:      run,
}

func run(pass *lintkit.Pass) error {
	if pass.Prog == nil {
		return nil
	}
	g := buildGraph(pass.Prog)
	for _, r := range g.reports {
		if r.pkg.Types == pass.Pkg {
			pass.Reportf(r.pos, "%s", r.msg)
		}
	}
	return nil
}

type edgeKey struct{ from, to lockflow.Class }

// witness is one acquisition site that produced an edge.
type witness struct {
	pkg   *lintkit.Package
	pos   token.Pos
	where string
}

type edgeInfo struct {
	declared  bool
	declWhere string
	wits      []witness
}

type report struct {
	pkg *lintkit.Package
	pos token.Pos
	msg string
}

// orderGraph is the module-wide acquisition graph plus the findings
// derived from it, computed once per run and shared by every package's
// pass invocation.
type orderGraph struct {
	edges   map[edgeKey]*edgeInfo
	reports []report
}

func (g *orderGraph) edge(k edgeKey) *edgeInfo {
	info := g.edges[k]
	if info == nil {
		info = &edgeInfo{}
		g.edges[k] = info
	}
	return info
}

func (g *orderGraph) addEdge(from, to lockflow.Class, pkg *lintkit.Package, pos token.Pos, fnName string) {
	info := g.edge(edgeKey{from, to})
	info.wits = append(info.wits, witness{pkg: pkg, pos: pos, where: lockflow.Where(pkg.Fset, pos) + " in " + fnName})
}

type orderCacheKey struct{}

func buildGraph(prog *lintkit.Program) *orderGraph {
	v := prog.Cache(orderCacheKey{}, func() any {
		g := &orderGraph{edges: map[edgeKey]*edgeInfo{}}
		acq := acquireSummaries(prog)
		for _, pkg := range prog.Packages {
			if !inScope(pkg.ImportPath) {
				continue
			}
			collectDeclarations(g, pkg)
			// Literals come right after their declaration and are named
			// after it.
			var name string
			lintkit.ForEachBody(pkg.Files, func(n ast.Node, body *ast.BlockStmt) {
				where := name + " (func literal)"
				if fd, ok := n.(*ast.FuncDecl); ok {
					name = fd.Name.Name
					where = name
				}
				bodyEdges(g, acq, pkg, where, body)
			})
		}
		buildReports(g)
		return g
	})
	return v.(*orderGraph)
}

func inScope(path string) bool {
	for _, pat := range DefaultPackages {
		if lintkit.PathMatches(path, pat) {
			return true
		}
	}
	return false
}

// collectDeclarations parses //lint:lockorder comments into declared
// edges; malformed declarations become findings so a typo cannot
// silently un-bless an order.
func collectDeclarations(g *orderGraph, pkg *lintkit.Package) {
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, "lint:lockorder") {
					continue
				}
				rest := strings.TrimSpace(strings.TrimPrefix(text, "lint:lockorder"))
				from, to, ok := parseDeclaration(rest)
				if !ok {
					g.reports = append(g.reports, report{
						pkg: pkg,
						pos: c.Pos(),
						msg: `malformed //lint:lockorder declaration: need "lockA -> lockB (reason)"`,
					})
					continue
				}
				info := g.edge(edgeKey{from, to})
				info.declared = true
				info.declWhere = "declared at " + lockflow.Where(pkg.Fset, c.Pos())
			}
		}
	}
}

func parseDeclaration(s string) (from, to lockflow.Class, ok bool) {
	arrow := strings.Index(s, "->")
	if arrow < 0 {
		return from, to, false
	}
	fromName := strings.TrimSpace(s[:arrow])
	rest := strings.TrimSpace(s[arrow+2:])
	open := strings.Index(rest, "(")
	if open < 0 || !strings.HasSuffix(rest, ")") {
		return from, to, false
	}
	toName := strings.TrimSpace(rest[:open])
	reason := strings.TrimSpace(rest[open+1 : len(rest)-1])
	if fromName == "" || toName == "" || reason == "" {
		return from, to, false
	}
	return classFromName(fromName), classFromName(toName), true
}

func classFromName(s string) lockflow.Class {
	if i := strings.LastIndex(s, "."); i >= 0 {
		return lockflow.Class{Owner: s[:i], Field: s[i+1:]}
	}
	return lockflow.Class{Field: s}
}

// bodyEdges solves the may-held analysis for one body, then replays
// the blocks once in deterministic order, adding a graph edge for
// every acquisition (direct lock or call with a non-empty may-acquire
// summary) made under a held lock.
func bodyEdges(g *orderGraph, acq map[*types.Func][]lockflow.Class, pkg *lintkit.Package, fnName string, body *ast.BlockStmt) {
	lockflow.Walk(pkg.Fset, pkg.Info, body, func(ev lockflow.Event, held lockflow.Held) {
		var acquired []lockflow.Class
		switch ev.Kind {
		case lockflow.Lock:
			if ev.Class != (lockflow.Class{}) {
				acquired = []lockflow.Class{ev.Class}
			}
		case lockflow.Call:
			acquired = acq[ev.Fn]
		}
		if len(acquired) == 0 || len(held) == 0 {
			return
		}
		for _, c := range acquired {
			for _, h := range heldClasses(held) {
				g.addEdge(h, c, pkg, ev.Pos, fnName)
			}
		}
	})
}

// heldClasses returns the distinct classes of the held set in a stable
// order, leaving out locks whose class could not be derived.
func heldClasses(held lockflow.Held) []lockflow.Class {
	seen := map[string]lockflow.Class{}
	for _, c := range held {
		if c != (lockflow.Class{}) {
			seen[c.String()] = c
		}
	}
	return sortedClasses(seen)
}

// sortedClasses returns the classes of a name -> class set in name
// order.
func sortedClasses(set map[string]lockflow.Class) []lockflow.Class {
	names := make([]string, 0, len(set))
	for s := range set {
		names = append(names, s)
	}
	sort.Strings(names)
	out := make([]lockflow.Class, 0, len(names))
	for _, s := range names {
		out = append(out, set[s])
	}
	return out
}

// buildReports finds the cyclic strongly connected components of the
// edge set and turns every observed, undeclared acquisition inside a
// cycle into a finding. Declared edges anchor cycles but are never
// themselves reported: the declaration is the sanctioned direction,
// the violation is whatever closes the loop against it.
func buildReports(g *orderGraph) {
	keys := make([]edgeKey, 0, len(g.edges))
	for k := range g.edges {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.from.String() != b.from.String() {
			return a.from.String() < b.from.String()
		}
		return a.to.String() < b.to.String()
	})
	adj := map[string][]string{}
	var nodes []string
	for _, k := range keys {
		from, to := k.from.String(), k.to.String()
		for _, n := range []string{from, to} {
			if _, ok := adj[n]; !ok {
				adj[n] = nil
				nodes = append(nodes, n)
			}
		}
		adj[from] = append(adj[from], to)
	}
	comp := map[string]int{}
	for i, scc := range lintkit.SCC(nodes, func(n string) []string { return adj[n] }) {
		for _, n := range scc {
			comp[n] = i
		}
	}
	for _, k := range keys {
		info := g.edges[k]
		cyclic := k.from == k.to || comp[k.from.String()] == comp[k.to.String()]
		if !cyclic || info.declared {
			continue
		}
		var msg string
		if k.from == k.to {
			msg = fmt.Sprintf("acquiring %s while another %s is held: same-class locks have no defined instance order (potential deadlock)", k.to, k.from)
		} else {
			msg = fmt.Sprintf("acquiring %s while %s is held creates a lock-order cycle (%s)", k.to, k.from, cyclePath(g, keys, k))
		}
		for _, w := range info.wits {
			g.reports = append(g.reports, report{pkg: w.pkg, pos: w.pos, msg: msg})
		}
	}
}

// cyclePath renders the shortest return path that closes the cycle the
// edge k belongs to, each hop tagged with its witness or declaration.
func cyclePath(g *orderGraph, keys []edgeKey, k edgeKey) string {
	out := map[string][]edgeKey{}
	for _, ek := range keys {
		out[ek.from.String()] = append(out[ek.from.String()], ek)
	}
	type qe struct {
		node string
		prev int
		via  edgeKey
	}
	start, goal := k.to.String(), k.from.String()
	all := []qe{{node: start, prev: -1}}
	visited := map[string]bool{start: true}
	for i := 0; i < len(all); i++ {
		cur := all[i]
		if cur.node == goal {
			var hops []edgeKey
			for j := i; all[j].prev >= 0; j = all[j].prev {
				hops = append([]edgeKey{all[j].via}, hops...)
			}
			parts := make([]string, 0, len(hops))
			for _, h := range hops {
				parts = append(parts, fmt.Sprintf("%s -> %s %s", h.from, h.to, g.whereOf(h)))
			}
			return "reverse path: " + strings.Join(parts, ", ")
		}
		for _, ek := range out[cur.node] {
			if visited[ek.to.String()] {
				continue
			}
			visited[ek.to.String()] = true
			all = append(all, qe{node: ek.to.String(), prev: i, via: ek})
		}
	}
	return "reverse path through " + start
}

func (g *orderGraph) whereOf(k edgeKey) string {
	info := g.edges[k]
	if info.declared {
		return "(" + info.declWhere + ")"
	}
	if len(info.wits) > 0 {
		return "(" + info.wits[0].where + ")"
	}
	return "(unwitnessed)"
}

// --- bottom-up may-acquire summaries ---

type acqCacheKey struct{}

// acquireSummaries computes, bottom-up over the module call graph, the
// set of lock classes each module-local function may acquire, directly
// or through callees. Function literals are excluded (they run on
// their own goroutines); go statements are excluded for the same
// reason; deferred calls are included — they run at return, while the
// caller's other locks may still be held.
func acquireSummaries(prog *lintkit.Program) map[*types.Func][]lockflow.Class {
	v := prog.Cache(acqCacheKey{}, func() any {
		return lintkit.SolveBottomUp(prog, 0, bodyAcquires, slices.Equal[[]lockflow.Class])
	})
	return v.(map[*types.Func][]lockflow.Class)
}

// bodyAcquires returns, in name order, the classes fn's body may lock
// directly or through callees summarized in sums. Sets only grow and
// the class universe is finite, so a component's iteration settles.
func bodyAcquires(_ *types.Func, src *lintkit.FuncSource, sums map[*types.Func][]lockflow.Class) []lockflow.Class {
	set := map[string]lockflow.Class{}
	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		ast.Inspect(n, func(c ast.Node) bool {
			switch c := c.(type) {
			case *ast.FuncLit:
				return false
			case *ast.GoStmt:
				for _, a := range c.Call.Args {
					walk(a)
				}
				return false
			case *ast.CallExpr:
				fn := lintkit.FuncForCall(src.Pkg.Info, c)
				if fn == nil {
					return true
				}
				if ev, ok := lockflow.LockOp(src.Pkg.Fset, src.Pkg.Info, c, fn); ok {
					if ev.Kind == lockflow.Lock && ev.Class != (lockflow.Class{}) {
						set[ev.Class.String()] = ev.Class
					}
					return true
				}
				for _, cl := range sums[fn] {
					set[cl.String()] = cl
				}
				return true
			}
			return true
		})
	}
	walk(src.Decl.Body)
	return sortedClasses(set)
}
