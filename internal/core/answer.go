package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/graph"
)

// NextGeq is the main primitive of Theorem 2.3: it returns the
// lexicographically smallest solution ā′ ≥ ā, or ok=false if none exists.
// Per the paper's answering phase, the smallest matching tuple is computed
// for every clause (τ, i) and the minimum is returned. When the engine is
// instrumented, every call's latency lands in the engine.next_geq_ns
// histogram; uninstrumented engines pay one nil check.
//
// The arity check and the clock reads live here, in the un-annotated
// wrapper; the inner nextGeq is the //fod:hotpath part.
func (e *Engine) NextGeq(a []graph.V) ([]graph.V, bool) {
	if len(a) != e.k {
		panic(fmt.Sprintf("core: tuple arity %d, want %d", len(a), e.k))
	}
	if h := e.instr.nextGeq; h != nil {
		start := time.Now()
		sol, ok := e.nextGeq(a)
		h.Observe(time.Since(start))
		return sol, ok
	}
	return e.nextGeq(a)
}

// nextGeq computes NextGeq for a correctly-sized tuple.
//
//fod:hotpath
func (e *Engine) nextGeq(a []graph.V) ([]graph.V, bool) {
	if e.g.N() == 0 {
		return nil, false
	}
	var best []graph.V
	for i := range e.clauses {
		cand := e.nextClause(i, a)
		if cand != nil && (best == nil || lexLess(cand, best)) {
			best = cand
		}
	}
	if best == nil {
		return nil, false
	}
	return best, true
}

// NextLast implements Lemma 5.2; see nextLast. Instrumented engines
// record per-call latency into engine.next_last_ns.
func (e *Engine) NextLast(prefix []graph.V, b graph.V) (graph.V, bool) {
	if len(prefix) != e.k-1 {
		panic(fmt.Sprintf("core: prefix arity %d, want %d", len(prefix), e.k-1))
	}
	if h := e.instr.nextLast; h != nil {
		start := time.Now()
		v, ok := e.nextLast(prefix, b)
		h.Observe(time.Since(start))
		return v, ok
	}
	return e.nextLast(prefix, b)
}

// nextLast implements Lemma 5.2: for a fixed (k−1)-prefix ā it returns
// the smallest b′ ≥ b with (ā, b′) ∈ q(G), in constant time. This is the
// induction step the paper nests with Theorem 5.1, and the natural
// "page through partners of ā" primitive for applications.
//
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

// prefixMatches checks the clause constraints that involve only the
// prefix: the distance pattern among its positions and the component
// formulas of components fully contained in it.
//
//fod:hotpath
func (e *Engine) prefixMatches(rt *clauseRT, prefix []graph.V) bool {
	for i := range prefix {
		for j := i + 1; j < len(prefix); j++ {
			if e.loc.within(prefix[i], prefix[j]) != rt.clause.Type.Close(i, j) {
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

// Test implements Corollary 2.4: constant-time membership of ā in the
// query result. Instrumented engines record per-call latency into
// engine.test_ns. The arity check and the clock reads live in this
// un-annotated wrapper.
func (e *Engine) Test(a []graph.V) bool {
	if len(a) != e.k {
		panic(fmt.Sprintf("core: tuple arity %d, want %d", len(a), e.k))
	}
	if h := e.instr.test; h != nil {
		start := time.Now()
		ok := e.test(a)
		h.Observe(time.Since(start))
		return ok
	}
	return e.test(a)
}

// test is the Corollary 2.4 membership check proper; the AllocsPerRun
// suite (alloc_guard_test.go) pins it at 0 allocs/op on
// singleton-component queries.
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
			if e.loc.within(a[i], a[j]) != rt.clause.Type.Close(i, j) {
				return false
			}
		}
	}
	for _, c := range rt.comps {
		if c.starterReady {
			// Singleton component: the starter bitmap answers in O(1)
			// without materializing the component tuple.
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

// Count returns |q(G)| by full enumeration.
func (e *Engine) Count() int {
	n, _ := e.CountCtx(context.Background())
	return n
}

// Iterator returns a cursor positioned at the first solution.
func (e *Engine) Iterator() *Iterator { return e.IteratorFrom(make([]graph.V, e.k)) }

// Arity returns the tuple width k.
func (e *Engine) Arity() int { return e.k }

// nextClause returns the smallest tuple ≥ a matching clause i, or nil.
//
//fod:hotpath
func (e *Engine) nextClause(i int, a []graph.V) []graph.V {
	tuple := make([]graph.V, e.k)
	if e.NextClauseInto(i, a, tuple) {
		return tuple
	}
	return nil
}

// NextClauseInto writes the smallest tuple ≥ a matching clause i into
// tuple (len(tuple) == k) and reports whether one exists. It is a
// lexicographic backtracking search whose per-level candidate generators
// are the paper's Case I (new component: the locality's nextOpening over
// the starter list) and Case II (ball scan around the component's first
// element). The recursion is a method, not a closure, so a steady-
// state caller that supplies the buffer (the Iterator) allocates nothing.
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

// nextCandidate returns the smallest v ≥ lower that is admissible for
// position j given the placed prefix, or -1.
//
//fod:hotpath
func (e *Engine) nextCandidate(rt *clauseRT, j int, prefix []graph.V, lower graph.V) graph.V {
	if lower >= e.g.N() {
		return -1
	}
	c := rt.comps[rt.compOf[j]]
	if rt.firstOf[j] == j {
		return e.loc.nextOpening(c, prefix, lower)
	}
	return e.nextWithinComponent(rt, c, j, prefix, lower)
}

// nextWithinComponent handles a position whose component already has a
// placed element (Case II): candidates live in the ball of radius R(k−1)
// around the component's first element; each is checked against the full
// distance pattern to the prefix, and the component formula is evaluated
// when the component completes at this position.
//
//fod:hotpath
func (e *Engine) nextWithinComponent(rt *clauseRT, c *compRT, j int, prefix []graph.V, lower graph.V) graph.V {
	ball := e.loc.compBall(prefix[rt.firstOf[j]])
	for i := searchInt32(ball, int32(lower)); i < len(ball); i++ {
		v := graph.V(ball[i])
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
		if e.loc.within(p, v) != rt.clause.Type.Close(i, j) {
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
		// Singleton component: the starter bitmap answers in O(1).
		return c.inStart[v]
	}
	vals := make([]graph.V, len(c.positions))
	for i, p := range c.positions[:len(c.positions)-1] {
		vals[i] = prefix[p]
	}
	vals[len(vals)-1] = v
	return e.localEval(c, vals)
}
