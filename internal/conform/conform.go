// Package conform is the engine-contract conformance kit: one shared set
// of query cases and one shared set of checks that every enumeration
// engine in the repo — the nowhere-dense core engine, the low-degree
// lowdeg engine and the naive Θ(n^k) oracle — must pass identically.
//
// The checks cover the full answering contract: enumeration order and
// completeness, NextGeq resume points (zero tuple, every solution, every
// successor, past-end), Test membership on a deterministic tuple grid,
// Count/FastCount agreement, cursor paging with mid-stream re-Seek, Seek
// interleaved with runs of Next on one reused cursor, and NextLast partner
// stepping. All helpers return errors instead of taking
// a *testing.T so the fuzz harness can reuse them verbatim.
package conform

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/naive"
)

// Case is one conformance scenario: a generated graph and a query, with
// Empty marking cases whose answer set is empty by construction (the
// query demands color C1 on a graph generated with a single color).
type Case struct {
	Name   string
	Class  gen.Class
	N      int
	Seed   int64
	Colors int
	Query  string
	Vars   []string
	Empty  bool
}

// Cases returns the shared battery: the differential scenarios that every
// engine must agree on, plus explicit empty-answer-set cases.
func Cases() []Case {
	return []Case{
		{Name: "path-far", Class: gen.Path, N: 60, Seed: 1, Colors: 2,
			Query: "dist(x,y) > 2 & C0(y)", Vars: []string{"x", "y"}},
		{Name: "grid-far-colored", Class: gen.Grid, N: 64, Seed: 1, Colors: 2,
			Query: "dist(x,y) > 1 & C0(x) & C1(y)", Vars: []string{"x", "y"}},
		{Name: "tree-edge", Class: gen.RandomTree, N: 70, Seed: 1, Colors: 2,
			Query: "E(x,y) & C0(x)", Vars: []string{"x", "y"}},
		{Name: "caterpillar-witness", Class: gen.Caterpillar, N: 50, Seed: 1, Colors: 2,
			Query: "dist(x,y) > 2 & (exists z (E(x,z) & C0(z)))", Vars: []string{"x", "y"}},
		{Name: "sparse-far", Class: gen.SparseRandom, N: 55, Seed: 1, Colors: 2,
			Query: "dist(x,y) > 2 & C0(x)", Vars: []string{"x", "y"}},
		{Name: "bdeg-ternary", Class: gen.BoundedDegree, N: 48, Seed: 1, Colors: 2,
			Query: "dist(x,y) > 1 & dist(y,z) > 1 & dist(x,z) > 1 & C0(x)", Vars: []string{"x", "y", "z"}},
		{Name: "star-mixed", Class: gen.Star, N: 40, Seed: 1, Colors: 2,
			Query: "C0(x) & C1(y) & dist(x,y) > 1", Vars: []string{"x", "y"}},
		{Name: "cycle-close", Class: gen.Cycle, N: 45, Seed: 1, Colors: 2,
			Query: "dist(x,y) <= 2 & C0(x)", Vars: []string{"x", "y"}},
		// Arity 3 with one connected component: the completion ball has
		// radius 2R ≠ R, and FastCount takes its connected-type recursion.
		{Name: "bdeg-path3", Class: gen.BoundedDegree, N: 40, Seed: 1, Colors: 2,
			Query: "E(x,y) & E(y,z) & C0(x)", Vars: []string{"x", "y", "z"}},
		// Case II (y joins x's component) followed by Case I with a
		// two-element prefix (z opens a component far from both).
		{Name: "bdeg-close-then-far", Class: gen.BoundedDegree, N: 40, Seed: 1, Colors: 2,
			Query: "E(x,y) & dist(x,z) > 2 & dist(y,z) > 2 & C0(z)", Vars: []string{"x", "y", "z"}},
		// Empty answer sets: C1 can never hold on a 1-color graph
		// (Bitset.Has is bounds-checked), so these are empty regardless of
		// the generator's probabilistic coloring.
		{Name: "empty-unary", Class: gen.Path, N: 30, Seed: 2, Colors: 1,
			Query: "C1(x)", Vars: []string{"x"}, Empty: true},
		{Name: "empty-far", Class: gen.Path, N: 30, Seed: 2, Colors: 1,
			Query: "C1(x) & dist(x,y) > 2", Vars: []string{"x", "y"}, Empty: true},
		{Name: "empty-close", Class: gen.Cycle, N: 24, Seed: 2, Colors: 1,
			Query: "C1(y) & dist(x,y) <= 2", Vars: []string{"x", "y"}, Empty: true},
		// Close pairs, answered from partner rows. A pair whose second
		// position comes after the far component's: Case II has a prefix
		// value of another component to stay far from.
		{Name: "grid-mixed-ternary", Class: gen.Grid, N: 36, Seed: 3, Colors: 2,
			Query: "dist(x,y) <= 2 & dist(x,z) > 2 & dist(y,z) > 2 & C0(z)", Vars: []string{"x", "z", "y"}},
		// The same with the pair first: Case I for z has a two-element prefix.
		{Name: "bdeg-mixed-ternary", Class: gen.BoundedDegree, N: 40, Seed: 3, Colors: 2,
			Query: "dist(x,y) <= 2 & dist(x,z) > 2 & dist(y,z) > 2 & C0(z)", Vars: []string{"x", "y", "z"}},
		// A quantifier inside the pair's formula: a cell is evaluated over a ball.
		{Name: "rtree-close-witness", Class: gen.RandomTree, N: 60, Seed: 3, Colors: 2,
			Query: "dist(x,y) <= 2 & C0(x) & exists z (E(y,z) & C1(z))", Vars: []string{"x", "y"}},
		// Two clauses of one close type: their rows overlap, counts take the union.
		{Name: "grid-close-disjunction", Class: gen.Grid, N: 49, Seed: 3, Colors: 2,
			Query: "(E(x,y) & C0(x)) | (dist(x,y) <= 2 & C1(y))", Vars: []string{"x", "y"}},
		// near2 on hubs, where a row is as long as the graph.
		{Name: "star-near", Class: gen.Star, N: 40, Seed: 3, Colors: 2,
			Query: "dist(x,y) <= 2 & C0(x) & C1(y)", Vars: []string{"x", "y"}},
		{Name: "sparse-near", Class: gen.SparseRandom, N: 60, Seed: 3, Colors: 2,
			Query: "dist(x,y) <= 2 & C0(x) & C1(y)", Vars: []string{"x", "y"}},
		// Skip pointers at the set size a list is asked, not at arity − 1
		// everywhere. Four pairwise far positions over two lists: the one that
		// opens the clause also closes it, behind a prefix of three values
		// (bag sets up to 3); the other is asked with one value and with two.
		{Name: "grid-far4", Class: gen.Grid, N: 16, Seed: 1, Colors: 2, Vars: []string{"x", "y", "z", "w"},
			Query: "dist(x,y) > 1 & dist(x,z) > 1 & dist(x,w) > 1 & dist(y,z) > 1 & dist(y,w) > 1 & dist(z,w) > 1 & C0(x) & C0(w) & C1(y) & C1(z)"},
		// A pair that opens behind a singleton: its anchors are a Case I list
		// asked with one bag, in a query of arity 3.
		{Name: "grid-far-then-pair", Class: gen.Grid, N: 36, Seed: 3, Colors: 2,
			Query: "dist(x,y) > 2 & dist(x,z) > 2 & dist(y,z) <= 2 & C0(x)", Vars: []string{"x", "y", "z"}},
	}
}

// Graph generates the case's input graph.
func (c Case) Graph() *graph.Graph {
	return gen.Generate(c.Class, c.N, gen.Options{Seed: c.Seed, Colors: c.Colors})
}

// Engine is the answering contract shared by core.Engine, lowdeg.Engine
// and the naive oracle adapter. (Arity and graph size travel in System —
// the engines expose them through different APIs.)
type Engine interface {
	NextGeq(a []graph.V) ([]graph.V, bool)
	Test(a []graph.V) bool
	Enumerate(yield func([]graph.V) bool)
	Count() int
}

// FastCounter is the optional sublinear counting face.
type FastCounter interface {
	FastCount() (int, bool)
}

// NextLaster is the optional Lemma 5.2 face.
type NextLaster interface {
	NextLast(prefix []graph.V, b graph.V) (graph.V, bool)
}

// Cursor is the pull-iterator face (core.Iterator over either engine, or
// the materialized naive cursor).
type Cursor interface {
	Seek(a []graph.V)
	HasNext() bool
	Next() ([]graph.V, bool)
}

// System binds an engine instance to the checks: the engine, its arity
// and graph size, and a constructor for a cursor positioned at the
// smallest solution ≥ a.
type System struct {
	Name      string
	Engine    Engine
	K         int
	N         int
	NewCursor func(a []graph.V) Cursor
}

// Materialize drains the engine's Enumerate into an owned slice.
func Materialize(e Engine) [][]graph.V {
	var out [][]graph.V
	e.Enumerate(func(sol []graph.V) bool {
		out = append(out, append([]graph.V(nil), sol...))
		return true
	})
	return out
}

// CheckAll runs every conformance check of sys against the expected
// solution list (lexicographically sorted, deduplicated).
func CheckAll(sys System, want [][]graph.V) error {
	if err := CheckEnumeration(sys, want); err != nil {
		return err
	}
	if err := CheckNextGeq(sys, want); err != nil {
		return err
	}
	if err := CheckTest(sys, want); err != nil {
		return err
	}
	if err := CheckCounts(sys, want); err != nil {
		return err
	}
	if err := CheckCursor(sys, want); err != nil {
		return err
	}
	if err := CheckSeekStep(sys, 1); err != nil {
		return err
	}
	return CheckNextLast(sys, want)
}

// CheckEnumeration verifies Enumerate yields exactly want, in order, and
// that early termination by the yield callback is honored.
func CheckEnumeration(sys System, want [][]graph.V) error {
	got := Materialize(sys.Engine)
	if len(got) != len(want) {
		return fmt.Errorf("%s: enumeration yielded %d solutions, want %d", sys.Name, len(got), len(want))
	}
	for i := range got {
		if !slices.Equal(got[i], want[i]) {
			return fmt.Errorf("%s: solution %d = %v, want %v", sys.Name, i, got[i], want[i])
		}
	}
	if len(want) > 1 {
		n := 0
		sys.Engine.Enumerate(func([]graph.V) bool { n++; return n < 2 })
		if n != 2 {
			return fmt.Errorf("%s: yield-false stopped after %d solutions, want 2", sys.Name, n)
		}
	}
	return nil
}

// CheckNextGeq probes the resume-point contract: the zero tuple resumes
// at the first solution, every solution resumes at itself, every
// successor resumes at the next solution, and a probe past the last
// solution (or on an empty answer set) reports exhaustion.
func CheckNextGeq(sys System, want [][]graph.V) error {
	if sys.N == 0 {
		return nil
	}
	zero := make([]graph.V, sys.K)
	if len(want) == 0 {
		if sol, ok := sys.Engine.NextGeq(zero); ok {
			return fmt.Errorf("%s: NextGeq(zero) = %v on an empty answer set", sys.Name, sol)
		}
		return nil
	}
	if sol, ok := sys.Engine.NextGeq(zero); !ok || !slices.Equal(sol, want[0]) {
		return fmt.Errorf("%s: NextGeq(zero) = %v,%v, want %v", sys.Name, sol, ok, want[0])
	}
	for i, w := range want {
		if sol, ok := sys.Engine.NextGeq(w); !ok || !slices.Equal(sol, w) {
			return fmt.Errorf("%s: NextGeq(%v) = %v,%v, want itself", sys.Name, w, sol, ok)
		}
		succ, carry := incTuple(w, sys.N)
		if !carry {
			continue // w is the maximum tuple; nothing is above it
		}
		if i+1 < len(want) {
			if sol, ok := sys.Engine.NextGeq(succ); !ok || !slices.Equal(sol, want[i+1]) {
				return fmt.Errorf("%s: NextGeq(%v) = %v,%v, want %v", sys.Name, succ, sol, ok, want[i+1])
			}
		} else if sol, ok := sys.Engine.NextGeq(succ); ok {
			return fmt.Errorf("%s: NextGeq(%v) past the last solution = %v", sys.Name, succ, sol)
		}
	}
	return nil
}

// CheckTest probes membership on every solution and on a deterministic
// stride grid over the whole tuple space (at most ~600 negative probes).
func CheckTest(sys System, want [][]graph.V) error {
	in := map[string]bool{}
	for _, w := range want {
		in[fmt.Sprint(w)] = true
		if !sys.Engine.Test(w) {
			return fmt.Errorf("%s: Test(%v) = false on a solution", sys.Name, w)
		}
	}
	total := 1
	for i := 0; i < sys.K; i++ {
		total *= sys.N
	}
	stride := total/600 + 1
	tuple := make([]graph.V, sys.K)
	for idx := 0; idx < total; idx += stride {
		x := idx
		for p := sys.K - 1; p >= 0; p-- {
			tuple[p] = x % sys.N
			x /= sys.N
		}
		if got, member := sys.Engine.Test(tuple), in[fmt.Sprint(tuple)]; got != member {
			return fmt.Errorf("%s: Test(%v) = %v, want %v", sys.Name, tuple, got, member)
		}
	}
	return nil
}

// CheckCounts verifies Count and, when the engine supports it, FastCount.
func CheckCounts(sys System, want [][]graph.V) error {
	if got := sys.Engine.Count(); got != len(want) {
		return fmt.Errorf("%s: Count = %d, want %d", sys.Name, got, len(want))
	}
	if fc, ok := sys.Engine.(FastCounter); ok {
		if got, supported := fc.FastCount(); supported && got != len(want) {
			return fmt.Errorf("%s: FastCount = %d, want %d", sys.Name, got, len(want))
		}
	}
	return nil
}

// CheckCursor pages through the cursor face at several page sizes (the
// pages must concatenate to exactly the solution list), re-Seeks
// mid-stream, and checks the empty/past-end cursor reports no next.
func CheckCursor(sys System, want [][]graph.V) error {
	if sys.NewCursor == nil {
		return nil
	}
	zero := make([]graph.V, sys.K)
	for _, page := range []int{1, 3, 7} {
		it := sys.NewCursor(zero)
		var got [][]graph.V
		for it.HasNext() {
			for i := 0; i < page && it.HasNext(); i++ {
				sol, ok := it.Next()
				if !ok {
					return fmt.Errorf("%s: cursor Next = false while HasNext", sys.Name)
				}
				got = append(got, append([]graph.V(nil), sol...))
			}
		}
		if _, ok := it.Next(); ok {
			return fmt.Errorf("%s: drained cursor produced another solution", sys.Name)
		}
		if len(got) != len(want) {
			return fmt.Errorf("%s: cursor(page=%d) yielded %d solutions, want %d", sys.Name, page, len(got), len(want))
		}
		for i := range got {
			if !slices.Equal(got[i], want[i]) {
				return fmt.Errorf("%s: cursor(page=%d) solution %d = %v, want %v", sys.Name, page, i, got[i], want[i])
			}
		}
	}
	// Mid-stream re-Seek: position at the middle solution and drain.
	if len(want) > 1 {
		mid := len(want) / 2
		it := sys.NewCursor(zero)
		it.Seek(want[mid])
		for i := mid; i < len(want); i++ {
			sol, ok := it.Next()
			if !ok || !slices.Equal(sol, want[i]) {
				return fmt.Errorf("%s: re-seek cursor at %d = %v,%v, want %v", sys.Name, i, sol, ok, want[i])
			}
		}
		if it.HasNext() {
			return fmt.Errorf("%s: re-seek cursor did not drain", sys.Name)
		}
	}
	return nil
}

// CheckSeekStep pins Next to its definition. A cursor's Next continues the
// search from the tuple it holds; Corollary 2.5 defines the same answer as
// NextGeq of the successor tuple, a search from scratch. On one reused
// cursor it interleaves Seeks — to random tuples, forward and backward, to
// solutions, to their successors (mostly non-answers), to the maximum tuple
// and to tuples whose last coordinate is n−1 — with runs of Next, and
// requires every run to be the sequence iterated NextGeq(successor) gives.
// NextGeq itself is held to the oracle by CheckNextGeq; this check needs no
// solution list, so it also runs where there are too many to materialize.
func CheckSeekStep(sys System, seed int64) error {
	if sys.NewCursor == nil || sys.N == 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(seed))
	it := sys.NewCursor(make([]graph.V, sys.K))
	a := make([]graph.V, sys.K)
	for round := 0; round < 200; round++ {
		for i := range a {
			a[i] = rng.Intn(sys.N)
		}
		switch rng.Intn(6) {
		case 0, 1: // a solution, or the tuple after one
			if sol, ok := sys.Engine.NextGeq(a); ok {
				copy(a, sol)
				if succ, ok := incTuple(sol, sys.N); ok && rng.Intn(2) == 0 {
					copy(a, succ)
				}
			}
		case 2:
			for i := range a {
				a[i] = sys.N - 1
			}
		case 3:
			a[sys.K-1] = sys.N - 1
		}
		it.Seek(a)
		exp, ok := sys.Engine.NextGeq(a)
		for run := rng.Intn(2 * sys.N); ; run-- {
			if it.HasNext() != ok {
				return fmt.Errorf("%s: after Seek(%v): HasNext = %v where NextGeq finds %v,%v", sys.Name, a, !ok, exp, ok)
			}
			if !ok || run == 0 {
				break
			}
			got, _ := it.Next()
			if !slices.Equal(got, exp) {
				return fmt.Errorf("%s: after Seek(%v): Next = %v, iterated NextGeq = %v", sys.Name, a, got, exp)
			}
			succ, more := incTuple(exp, sys.N)
			if exp, ok = nil, false; more {
				exp, ok = sys.Engine.NextGeq(succ)
			}
		}
	}
	return nil
}

// CheckNextLast exercises the Lemma 5.2 face on engines that have one:
// for every solution, its (k−1)-prefix must step through exactly its
// partner list.
func CheckNextLast(sys System, want [][]graph.V) error {
	nl, ok := sys.Engine.(NextLaster)
	if !ok || sys.K < 2 || sys.N == 0 {
		return nil
	}
	// partners[prefix] = sorted last coordinates.
	partners := map[string][]graph.V{}
	var prefixes [][]graph.V
	for _, w := range want {
		key := fmt.Sprint(w[:sys.K-1])
		if _, seen := partners[key]; !seen {
			prefixes = append(prefixes, append([]graph.V(nil), w[:sys.K-1]...))
		}
		partners[key] = append(partners[key], w[sys.K-1])
	}
	for _, prefix := range prefixes {
		key := fmt.Sprint(prefix)
		b := graph.V(0)
		for _, wantB := range partners[key] {
			got, ok := nl.NextLast(prefix, b)
			if !ok || got != wantB {
				return fmt.Errorf("%s: NextLast(%v, %d) = %v,%v, want %d", sys.Name, prefix, b, got, ok, wantB)
			}
			b = got + 1
			if b >= sys.N {
				break
			}
		}
		last := partners[key][len(partners[key])-1]
		if last+1 < sys.N {
			if got, ok := nl.NextLast(prefix, last+1); ok {
				return fmt.Errorf("%s: NextLast(%v, %d) past the last partner = %d", sys.Name, prefix, last+1, got)
			}
		}
	}
	// A prefix with no partners at all must answer false immediately.
	noSol := make([]graph.V, sys.K-1)
	for v := 0; v < sys.N; v++ {
		noSol[0] = v
		if _, seen := partners[fmt.Sprint(noSol)]; !seen {
			if got, ok := nl.NextLast(noSol, 0); ok {
				return fmt.Errorf("%s: NextLast(%v, 0) = %d on a partnerless prefix", sys.Name, noSol, got)
			}
			break
		}
	}
	return nil
}

// NaiveEngine adapts the Θ(n^k) reference oracle to the Engine contract
// by materializing naive.SolutionsLocal once and answering from the
// sorted list. It exists so the conformance checks themselves are
// validated against an implementation with no shared code or data
// structures with either real engine.
type NaiveEngine struct {
	sols [][]graph.V
	k, n int
}

// NewNaive builds the oracle adapter for q over g.
func NewNaive(g *graph.Graph, q *core.LocalQuery) *NaiveEngine {
	sols := naive.SolutionsLocal(g, q)
	sort.Slice(sols, func(i, j int) bool { return slices.Compare(sols[i], sols[j]) < 0 })
	return &NaiveEngine{sols: sols, k: q.K, n: g.N()}
}

// Solutions returns the materialized solution list (sorted, owned by the
// adapter) — the `want` input for the checks.
func (e *NaiveEngine) Solutions() [][]graph.V { return e.sols }

func (e *NaiveEngine) NextGeq(a []graph.V) ([]graph.V, bool) {
	i := sort.Search(len(e.sols), func(i int) bool { return slices.Compare(e.sols[i], a) >= 0 })
	if i == len(e.sols) {
		return nil, false
	}
	return e.sols[i], true
}

func (e *NaiveEngine) Test(a []graph.V) bool {
	i := sort.Search(len(e.sols), func(i int) bool { return slices.Compare(e.sols[i], a) >= 0 })
	return i < len(e.sols) && slices.Equal(e.sols[i], a)
}

func (e *NaiveEngine) Enumerate(yield func([]graph.V) bool) {
	for _, s := range e.sols {
		if !yield(s) {
			return
		}
	}
}

func (e *NaiveEngine) Count() int { return len(e.sols) }

func (e *NaiveEngine) NextLast(prefix []graph.V, b graph.V) (graph.V, bool) {
	for _, s := range e.sols {
		if slices.Equal(s[:e.k-1], prefix) && s[e.k-1] >= b {
			return s[e.k-1], true
		}
	}
	return 0, false
}

// naiveCursor pages over the materialized list.
type naiveCursor struct {
	e   *NaiveEngine
	idx int
}

// Cursor returns a cursor positioned at the smallest solution ≥ a.
func (e *NaiveEngine) Cursor(a []graph.V) Cursor {
	c := &naiveCursor{e: e}
	c.Seek(a)
	return c
}

func (c *naiveCursor) Seek(a []graph.V) {
	c.idx = sort.Search(len(c.e.sols), func(i int) bool { return slices.Compare(c.e.sols[i], a) >= 0 })
}

func (c *naiveCursor) HasNext() bool { return c.idx < len(c.e.sols) }

func (c *naiveCursor) Next() ([]graph.V, bool) {
	if c.idx >= len(c.e.sols) {
		return nil, false
	}
	s := c.e.sols[c.idx]
	c.idx++
	return s, true
}

// incTuple returns the lexicographic successor of a over [0,n)^k.
func incTuple(a []graph.V, n int) ([]graph.V, bool) {
	out := append([]graph.V(nil), a...)
	for i := len(out) - 1; i >= 0; i-- {
		if out[i]+1 < n {
			out[i]++
			return out, true
		}
		out[i] = 0
	}
	return nil, false
}
