package lowdeg

import (
	"context"
	"fmt"
	"slices"
	"sort"

	"repro/internal/core"
	"repro/internal/graph"
)

// NextGeq returns the lexicographically smallest solution ā′ ≥ ā, or
// ok=false — the Theorem 2.3 primitive, here with the low-degree
// candidate generators: distance tests are binary searches in sorted
// R-balls and Case I is a bounded forward scan of the starter list.
func (e *Engine) NextGeq(a []graph.V) ([]graph.V, bool) {
	if len(a) != e.k {
		panic(fmt.Sprintf("lowdeg: tuple arity %d, want %d", len(a), e.k))
	}
	return e.nextGeq(a)
}

//fod:hotpath
func (e *Engine) nextGeq(a []graph.V) ([]graph.V, bool) {
	if e.g.N() == 0 {
		return nil, false
	}
	var best []graph.V
	for i := range e.clauses {
		cand := e.nextClause(i, a)
		if cand != nil && (best == nil || slices.Compare(cand, best) < 0) {
			best = cand
		}
	}
	if best == nil {
		return nil, false
	}
	return best, true
}

// NextLast is the Lemma 5.2 primitive: for a fixed (k−1)-prefix ā it
// returns the smallest b′ ≥ b with (ā, b′) ∈ q(G).
func (e *Engine) NextLast(prefix []graph.V, b graph.V) (graph.V, bool) {
	if len(prefix) != e.k-1 {
		panic(fmt.Sprintf("lowdeg: prefix arity %d, want %d", len(prefix), e.k-1))
	}
	return e.nextLast(prefix, b)
}

//fod:hotpath
func (e *Engine) nextLast(prefix []graph.V, b graph.V) (graph.V, bool) {
	if b < 0 {
		b = 0
	}
	best := graph.V(-1)
	for _, rt := range e.clauses {
		if !e.prefixMatches(rt, prefix) {
			continue
		}
		if v := e.nextCandidate(rt, e.k-1, prefix, b); v >= 0 && (best < 0 || v < best) {
			best = v
		}
	}
	if best < 0 {
		return 0, false
	}
	return best, true
}

// prefixMatches checks the clause constraints involving only the prefix:
// its internal distance pattern and the component formulas of components
// fully contained in it.
//
//fod:hotpath
func (e *Engine) prefixMatches(rt *clauseRT, prefix []graph.V) bool {
	for i := range prefix {
		for j := i + 1; j < len(prefix); j++ {
			if e.within(prefix[i], prefix[j]) != rt.clause.Type.Close(i, j) {
				return false
			}
		}
	}
	for _, c := range rt.comps {
		if c.last >= len(prefix) {
			continue
		}
		if c.starterReady {
			// Singleton component: the starter bitmap answers in O(1).
			if !c.inStart[prefix[c.positions[0]]] {
				return false
			}
			continue
		}
		vals := make([]graph.V, len(c.positions))
		for i, p := range c.positions {
			vals[i] = prefix[p]
		}
		if !e.localEval(c, vals) {
			return false
		}
	}
	return true
}

// Test is the Corollary 2.4 constant-time membership check.
func (e *Engine) Test(a []graph.V) bool {
	if len(a) != e.k {
		panic(fmt.Sprintf("lowdeg: tuple arity %d, want %d", len(a), e.k))
	}
	return e.test(a)
}

// test checks ā against every live clause; with singleton components
// (starterReady) it performs only binary searches and bitmap probes, so
// the LOWDEG_GUARD suite pins it at 0 allocs/op.
//
//fod:hotpath
func (e *Engine) test(a []graph.V) bool {
	for _, rt := range e.clauses {
		if e.testClause(rt, a) {
			return true
		}
	}
	return false
}

//fod:hotpath
func (e *Engine) testClause(rt *clauseRT, a []graph.V) bool {
	for i := 0; i < e.k; i++ {
		for j := i + 1; j < e.k; j++ {
			if e.within(a[i], a[j]) != rt.clause.Type.Close(i, j) {
				return false
			}
		}
	}
	for _, c := range rt.comps {
		if c.starterReady {
			if !c.inStart[a[c.positions[0]]] {
				return false
			}
			continue
		}
		vals := make([]graph.V, len(c.positions))
		for i, p := range c.positions {
			vals[i] = a[p]
		}
		if !e.localEval(c, vals) {
			return false
		}
	}
	return true
}

// Enumerate, Count, CountCtx and the cursors are the shared loop and
// Iterator of internal/core, driven through this engine's NextClauseInto.
func (e *Engine) Enumerate(yield func([]graph.V) bool) { core.Enumerate(e, nil, yield) }

// Count returns |q(G)| by full enumeration.
func (e *Engine) Count() int {
	n, _ := e.CountCtx(context.Background())
	return n
}

// CountCtx is Count with cooperative cancellation; see core.CountCtx.
func (e *Engine) CountCtx(ctx context.Context) (int, error) { return core.CountCtx(ctx, e, nil) }

// Iterator returns a cursor positioned at the first solution.
func (e *Engine) Iterator() *core.Iterator { return e.IteratorFrom(make([]graph.V, e.k)) }

// IteratorFrom returns a cursor positioned at the smallest solution ≥ a.
func (e *Engine) IteratorFrom(a []graph.V) *core.Iterator { return core.NewIterator(e, a) }

// NumClauses, Arity and N complete the core.ClauseStepper contract.
func (e *Engine) NumClauses() int { return len(e.clauses) }
func (e *Engine) Arity() int      { return e.k }
func (e *Engine) N() int          { return e.g.N() }

//fod:hotpath
func (e *Engine) nextClause(i int, a []graph.V) []graph.V {
	tuple := make([]graph.V, e.k)
	if e.NextClauseInto(i, a, tuple) {
		return tuple
	}
	return nil
}

// NextClauseInto writes the smallest tuple ≥ a matching clause i into
// tuple and reports whether one exists — the same lexicographic
// backtracking as the core engine, with the low-degree Case I/II
// candidate generators below.
//
//fod:hotpath
func (e *Engine) NextClauseInto(i int, a, tuple []graph.V) bool {
	return e.nextClauseRec(e.clauses[i], a, tuple, 0, true)
}

// nextClauseRec places position j of tuple; tight means the prefix equals
// a's, so position j is still bounded below by a[j].
//
//fod:hotpath
func (e *Engine) nextClauseRec(rt *clauseRT, a, tuple []graph.V, j int, tight bool) bool {
	if j == e.k {
		return true
	}
	var lower graph.V
	if tight {
		lower = a[j]
	}
	for v := e.nextCandidate(rt, j, tuple[:j], lower); v >= 0; {
		tuple[j] = v
		e.ctr.candidates.Add(1)
		if e.nextClauseRec(rt, a, tuple, j+1, tight && v == a[j]) {
			return true
		}
		e.ctr.deadEnds.Add(1)
		if v+1 >= e.g.N() {
			break
		}
		v = e.nextCandidate(rt, j, tuple[:j], v+1)
	}
	return false
}

//fod:hotpath
func (e *Engine) nextCandidate(rt *clauseRT, j int, prefix []graph.V, lower graph.V) graph.V {
	if lower >= e.g.N() {
		return -1
	}
	c := rt.comps[rt.compOf[j]]
	if rt.firstOf[j] == j {
		return e.nextOpening(c, prefix, lower)
	}
	return e.nextWithinComponent(rt, c, j, prefix, lower)
}

// nextOpening handles a position that opens a new component (Case I): the
// candidate must come from the starter list at distance > R from every
// prefix element. On a degree-d graph no skip pointers are needed: every
// rejected starter lies in the R-ball of one of the ≤ k−1 prefix
// elements, so the forward scan skips at most (k−1)·d^R entries before
// succeeding or clearing the obstruction — constant delay for constant d.
//
//fod:hotpath
func (e *Engine) nextOpening(c *compRT, prefix []graph.V, lower graph.V) graph.V {
	i := sort.SearchInts(c.starter, lower)
	for ; i < len(c.starter); i++ {
		v := c.starter[i]
		if e.farFromAll(v, prefix) {
			return v
		}
	}
	return -1
}

//fod:hotpath
func (e *Engine) farFromAll(v graph.V, prefix []graph.V) bool {
	for _, p := range prefix {
		if e.within(v, p) {
			return false
		}
	}
	return true
}

// nextWithinComponent handles a position whose component already has a
// placed element (Case II): candidates live in the sorted radius-R(k−1)
// ball of the component's first element — at most d^{R(k−1)}+1 of them.
//
//fod:hotpath
func (e *Engine) nextWithinComponent(rt *clauseRT, c *compRT, j int, prefix []graph.V, lower graph.V) graph.V {
	anchor := prefix[rt.firstOf[j]]
	row := e.ballCRow(anchor)
	i := searchInt32(row, int32(lower))
	for ; i < len(row); i++ {
		v := graph.V(row[i])
		if !e.patternOK(rt, j, prefix, v) {
			continue
		}
		if j == c.last && !e.componentHolds(c, prefix, v) {
			continue
		}
		return v
	}
	return -1
}

// patternOK verifies dist(prefix[i], v) ≤ R exactly matches the clause's
// distance type for every placed position i.
//
//fod:hotpath
func (e *Engine) patternOK(rt *clauseRT, j int, prefix []graph.V, v graph.V) bool {
	for i, p := range prefix {
		if e.within(p, v) != rt.clause.Type.Close(i, j) {
			return false
		}
	}
	return true
}

// componentHolds evaluates ψ_I with the component completed by v at its
// last position.
//
//fod:hotpath
func (e *Engine) componentHolds(c *compRT, prefix []graph.V, v graph.V) bool {
	if c.starterReady {
		return c.inStart[v]
	}
	vals := make([]graph.V, len(c.positions))
	for i, p := range c.positions[:len(c.positions)-1] {
		vals[i] = prefix[p]
	}
	vals[len(vals)-1] = v
	return e.localEval(c, vals)
}

// searchInt32 returns the smallest index i with row[i] >= x (lower-bound
// binary search, written out so the hot path carries no closure).
//
//fod:hotpath
func searchInt32(row []int32, x int32) int {
	lo, hi := 0, len(row)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if row[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
