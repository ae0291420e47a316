package lintkit

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// tarjanRecursive is the textbook recursive form of Tarjan's algorithm,
// kept as the reference SCC must agree with: same components, same
// order, same member order.
func tarjanRecursive[N comparable](roots []N, succ func(N) []N) [][]N {
	index := make(map[N]int)
	low := make(map[N]int)
	onStack := make(map[N]bool)
	var stack []N
	var sccs [][]N
	next := 0

	var strongconnect func(v N)
	strongconnect = func(v N) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range succ(v) {
			if _, seen := index[w]; !seen {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
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
	for _, v := range roots {
		if _, seen := index[v]; !seen {
			strongconnect(v)
		}
	}
	return sccs
}

func checkSCC(t *testing.T, name string, roots []int, adj [][]int) {
	t.Helper()
	succ := func(v int) []int { return adj[v] }
	got, want := SCC(roots, succ), tarjanRecursive(roots, succ)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: SCC = %v, recursive Tarjan = %v", name, got, want)
	}
}

func TestSCCMatchesRecursiveTarjan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for g := 0; g < 500; g++ {
		n := rng.Intn(30)
		adj := make([][]int, n)
		for v := range adj {
			// Self-loops and repeated successors included.
			for k := rng.Intn(5); k > 0; k-- {
				adj[v] = append(adj[v], rng.Intn(n))
			}
		}
		roots := rng.Perm(n)
		if n > 0 && g%3 == 0 {
			// A partial root list with repeats: only what it reaches.
			roots = append(roots[:n/2], roots[0])
		}
		checkSCC(t, "random graph", roots, adj)
	}

	self := [][]int{{0}, {1, 0}}
	checkSCC(t, "self-loops", []int{1, 0}, self)
	if got := SCC([]int{1, 0}, func(v int) []int { return self[v] }); len(got) != 2 || len(got[0]) != 1 || got[0][0] != 0 {
		t.Fatalf("self-loops: SCC = %v, want [[0] [1]]", got)
	}

	const long = 50000
	chain := make([][]int, long)
	for v := 0; v < long-1; v++ {
		chain[v] = []int{v + 1}
	}
	checkSCC(t, "long chain", []int{0}, chain)
	if got := SCC([]int{0}, func(v int) []int { return chain[v] }); len(got) != long || got[0][0] != long-1 {
		t.Fatalf("long chain: %d components starting %v, want %d starting at the tail", len(got), got[0], long)
	}
	chain[long-1] = []int{0}
	checkSCC(t, "long cycle", []int{0}, chain)
}

// programOf type-checks one import-free source file as a Program.
func programOf(t *testing.T, src string) *Program {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "p.go", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Defs:  make(map[*ast.Ident]types.Object),
		Uses:  make(map[*ast.Ident]types.Object),
	}
	tpkg, err := new(types.Config).Check("p", fset, []*ast.File{file}, info)
	if err != nil {
		t.Fatal(err)
	}
	return NewProgram([]*Package{{ImportPath: "p", Fset: fset, Files: []*ast.File{file}, Types: tpkg, Info: info}})
}

// reach summarizes a function as the sorted, comma-joined names of the
// functions it reaches through calls. In a mutually recursive component
// a member's own name arrives only through the other member, so the
// component needs more than one round.
func reach(p *Program, calls map[string]int) func(fn *types.Func, src *FuncSource, sums map[*types.Func]string) string {
	return func(fn *types.Func, src *FuncSource, sums map[*types.Func]string) string {
		calls[fn.Name()]++
		set := map[string]bool{}
		for _, callee := range p.Callees(fn) {
			set[callee.Name()] = true
			for _, name := range strings.Split(sums[callee], ",") {
				if name != "" {
					set[name] = true
				}
			}
		}
		var names []string
		for name := range set {
			names = append(names, name)
		}
		sort.Strings(names)
		return strings.Join(names, ",")
	}
}

const mutualSrc = `package p

func a() { b() }
func b() { a(); c() }
func c() {}
`

func byName(sums map[*types.Func]string) map[string]string {
	out := map[string]string{}
	for fn, s := range sums {
		out[fn.Name()] = s
	}
	return out
}

func TestSolveBottomUpIteratesMutualRecursion(t *testing.T) {
	p := programOf(t, mutualSrc)
	var order []string
	for _, scc := range p.BottomUp() {
		var names []string
		for _, fn := range scc {
			names = append(names, fn.Name())
		}
		order = append(order, strings.Join(names, " "))
	}
	if want := []string{"c", "b a"}; !reflect.DeepEqual(order, want) {
		t.Fatalf("BottomUp = %q, want %q", order, want)
	}

	calls := map[string]int{}
	eq := func(x, y string) bool { return x == y }
	got := byName(SolveBottomUp(p, 0, reach(p, calls), eq))
	// Round 1 gives b "a,c" (a not yet summarized) and a "a,b,c"; round
	// 2 grows b to "a,b,c"; round 3 changes nothing. c's summary stays
	// the zero value, so it is absent.
	if want := map[string]string{"a": "a,b,c", "b": "a,b,c"}; !reflect.DeepEqual(got, want) {
		t.Errorf("summaries = %v, want %v", got, want)
	}
	if want := map[string]int{"a": 3, "b": 3, "c": 1}; !reflect.DeepEqual(calls, want) {
		t.Errorf("summarize calls = %v, want %v", calls, want)
	}
}

func TestSolveBottomUpStopsAtRoundCap(t *testing.T) {
	p := programOf(t, mutualSrc)
	calls := map[string]int{}
	got := byName(SolveBottomUp(p, 1, reach(p, calls), func(x, y string) bool { return x == y }))
	if want := map[string]string{"a": "a,b,c", "b": "a,c"}; !reflect.DeepEqual(got, want) {
		t.Errorf("summaries after one round = %v, want %v", got, want)
	}
	if want := map[string]int{"a": 1, "b": 1, "c": 1}; !reflect.DeepEqual(calls, want) {
		t.Errorf("summarize calls = %v, want %v", calls, want)
	}
}
