package lintkit

import (
	"go/ast"
	"go/types"
)

// Program is the whole set of packages loaded for one analyzer run. It
// gives interprocedural analyses (the taint engine, blocking-call
// summaries) access to the bodies of module-local functions across
// package boundaries, the module call graph, plus a shared cache so
// summaries are computed once per run, not once per analyzed package.
type Program struct {
	Packages []*Package

	decls  map[*types.Func]*FuncSource
	funcs  []*types.Func
	caches map[any]any

	// calls and sccs are the call graph and its bottom-up components,
	// built on first use.
	calls map[*types.Func][]*types.Func
	sccs  [][]*types.Func

	cacheBuilds int
	cacheHits   int
}

// FuncSource locates the declaration of a module-local function.
type FuncSource struct {
	Decl *ast.FuncDecl
	Pkg  *Package
}

// NewProgram indexes the declared functions and methods of pkgs.
func NewProgram(pkgs []*Package) *Program {
	p := &Program{
		Packages: pkgs,
		decls:    make(map[*types.Func]*FuncSource),
		caches:   make(map[any]any),
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					p.decls[fn] = &FuncSource{Decl: fd, Pkg: pkg}
					p.funcs = append(p.funcs, fn)
				}
			}
		}
	}
	return p
}

// Source returns the declaration of fn when its package was loaded in
// this run, or nil for out-of-module (including standard library)
// functions.
func (p *Program) Source(fn *types.Func) *FuncSource {
	if p == nil {
		return nil
	}
	return p.decls[fn]
}

// Cache memoizes an analysis-wide value under key, building it on first
// use. Analyzers key by a private type to avoid collisions.
func (p *Program) Cache(key any, build func() any) any {
	if v, ok := p.caches[key]; ok {
		p.cacheHits++
		return v
	}
	v := build()
	p.caches[key] = v
	p.cacheBuilds++
	return v
}

// CacheStats reports how many Cache lookups built a fresh value and how
// many reused one — the observable form of "module-wide summaries are
// computed once per run, not once per package".
func (p *Program) CacheStats() (builds, hits int) {
	return p.cacheBuilds, p.cacheHits
}

// Funcs returns every indexed function in a deterministic order
// (file/position order within each package, packages in load order).
// The slice is shared; callers must not modify it.
func (p *Program) Funcs() []*types.Func { return p.funcs }

// Callees returns the static, module-local callees of fn, each once, in
// the order of their first call in fn's body (function literals
// included). Edges exist only for direct calls whose callee resolves to
// a declared function of the program: calls through function values
// and interface methods have none, and interprocedural clients must
// treat those conservatively. The graph is built on the first call and
// then shared by every analyzer of the run.
func (p *Program) Callees(fn *types.Func) []*types.Func {
	if p.calls == nil {
		p.calls = make(map[*types.Func][]*types.Func)
		for _, caller := range p.funcs {
			src := p.decls[caller]
			seen := make(map[*types.Func]bool)
			ast.Inspect(src.Decl.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				callee := FuncForCall(src.Pkg.Info, call)
				if callee == nil || p.decls[callee] == nil || seen[callee] {
					return true
				}
				seen[callee] = true
				p.calls[caller] = append(p.calls[caller], callee)
				return true
			})
		}
	}
	return p.calls[fn]
}

// BottomUp returns the strongly connected components of the call graph
// in bottom-up (callees before callers) order, rooted at Funcs in
// order. The result is computed once and shared; callers must not
// modify it.
func (p *Program) BottomUp() [][]*types.Func {
	if p.sccs == nil {
		p.sccs = SCC(p.funcs, p.Callees)
	}
	return p.sccs
}

// SCC returns the strongly connected components of the graph reachable
// from roots by Tarjan's algorithm. Roots and each node's successors are
// visited in the order given; a component is emitted once its first
// visited node finishes, listing members in the order they leave
// Tarjan's stack. Tarjan emits components in reverse topological order
// of the condensation, so every component comes after the components
// it reaches — callees first for a call graph. The walk keeps its own
// stack, so long chains cannot exhaust the goroutine stack.
func SCC[N comparable](roots []N, succ func(N) []N) [][]N {
	type frame struct {
		v    N
		next int // index of v's next successor to visit
	}
	index := make(map[N]int)
	low := make(map[N]int)
	onStack := make(map[N]bool)
	var stack []N
	var frames []frame
	var sccs [][]N
	visit := func(v N) {
		index[v] = len(index)
		low[v] = index[v]
		stack = append(stack, v)
		onStack[v] = true
		frames = append(frames, frame{v: v})
	}
	for _, root := range roots {
		if _, seen := index[root]; seen {
			continue
		}
		visit(root)
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			if succs := succ(f.v); f.next < len(succs) {
				w := succs[f.next]
				f.next++
				if _, seen := index[w]; !seen {
					visit(w)
				} else if onStack[w] && index[w] < low[f.v] {
					low[f.v] = index[w]
				}
				continue
			}
			v := f.v
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				if parent := frames[len(frames)-1].v; low[v] < low[parent] {
					low[parent] = low[v]
				}
			}
			if low[v] != index[v] {
				continue
			}
			var scc []N
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				scc = append(scc, w)
				if w == v {
					break
				}
			}
			sccs = append(sccs, scc)
		}
	}
	return sccs
}

// SolveBottomUp computes one summary per module-local function, callees
// first. It takes the call graph's components in BottomUp order and
// re-summarizes the members of each, in order, until a round changes no
// summary (mutual recursion settles), or until maxRounds rounds have
// run when maxRounds > 0. summarize sees every summary computed so far,
// including those updated earlier in the same round. Each summary
// starts as the zero value of S; a function's entry is stored only when
// equal says summarize's result differs from the current one, so
// functions whose summary stays at the zero value are absent from the
// result. summarize must return a fresh value rather than mutate the
// one in sums.
func SolveBottomUp[S any](p *Program, maxRounds int, summarize func(fn *types.Func, src *FuncSource, sums map[*types.Func]S) S, equal func(a, b S) bool) map[*types.Func]S {
	sums := make(map[*types.Func]S)
	for _, scc := range p.BottomUp() {
		for round := 1; maxRounds <= 0 || round <= maxRounds; round++ {
			changed := false
			for _, fn := range scc {
				s := summarize(fn, p.decls[fn], sums)
				if !equal(sums[fn], s) {
					sums[fn] = s
					changed = true
				}
			}
			if !changed {
				break
			}
		}
	}
	return sums
}
