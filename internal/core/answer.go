package core

import (
	"context"
	"fmt"

	"repro/internal/graph"
	"repro/internal/skip"
)

// NextGeq is the main primitive of Theorem 2.3: it returns the
// lexicographically smallest solution ā′ ≥ ā, or ok=false if none exists.
// Per the paper's answering phase, the smallest matching tuple is computed
// for every clause (τ, i) and the minimum is returned.
//
// The arity check lives here, in the un-annotated wrapper; the inner
// nextGeq is the //fod:hotpath part.
func (e *Engine) NextGeq(a []graph.V) ([]graph.V, bool) {
	if len(a) != e.k {
		panic(fmt.Sprintf("core: tuple arity %d, want %d", len(a), e.k))
	}
	return e.nextGeq(a)
}

// nextGeq computes NextGeq for a correctly-sized tuple: one seek per clause
// on a cursor without frames (a single call has nothing to resume), the
// minimum so far kept in one half of the call's only allocation while the
// next clause seeks into the other. What the seeks count is folded into the
// engine once, at the end.
//
//fod:hotpath
func (e *Engine) nextGeq(a []graph.V) ([]graph.V, bool) {
	if e.g.N() == 0 {
		return nil, false
	}
	k := e.k
	buf := make([]graph.V, 2*k)
	best, cand, found := buf[:k:k], buf[k:], false
	var cur clauseCursor
	for _, rt := range e.clauses {
		cur.rt, cur.t = rt, cand
		if e.seek(&cur, a) && (!found || lexLess(cand, best)) {
			best, cand, found = cand, best, true
		}
	}
	e.fold(&cur)
	if !found {
		return nil, false
	}
	return best, true
}

// NextLast implements Lemma 5.2; see nextLast.
func (e *Engine) NextLast(prefix []graph.V, b graph.V) (graph.V, bool) {
	if len(prefix) != e.k-1 {
		panic(fmt.Sprintf("core: prefix arity %d, want %d", len(prefix), e.k-1))
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
		if v := e.nextCandidate(rt, e.k-1, prefix, b, nil); v >= 0 && (best < 0 || v < best) {
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
		if c.last < len(prefix) && !e.holdsAt(c, prefix) {
			return false
		}
	}
	return true
}

// holdsAt reports ψ_I on the values a holds at c's positions, all of them
// placed and their distance pattern verified: a bit of the starter set
// for a singleton, a binary search in the anchor's partner row for a pair,
// and for a larger component the lazy evaluation behind localEval.
//
//fod:hotpath
func (e *Engine) holdsAt(c *compRT, a []graph.V) bool {
	if len(c.positions) == 1 {
		return c.inStart.Has(a[c.positions[0]])
	}
	return e.holdsAtSeveral(c, a)
}

//fod:hotpath
func (e *Engine) holdsAtSeveral(c *compRT, a []graph.V) bool {
	if c.paired() {
		return c.pairHolds(a[c.positions[0]], a[c.positions[1]])
	}
	vals := make([]graph.V, len(c.positions))
	for i, p := range c.positions {
		vals[i] = a[p]
	}
	return e.localEval(c, vals)
}

// Test implements Corollary 2.4: constant-time membership of ā in the
// query result. The arity check lives in this un-annotated wrapper.
func (e *Engine) Test(a []graph.V) bool {
	if len(a) != e.k {
		panic(fmt.Sprintf("core: tuple arity %d, want %d", len(a), e.k))
	}
	return e.test(a)
}

// test is the Corollary 2.4 membership check proper; the AllocsPerRun
// suite (alloc_guard_test.go) pins it at 0 allocs/op on queries whose
// components have one or two positions.
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
		if !e.holdsAt(c, a) {
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

// clauseCursor is the resumable lexicographic search of one clause: a
// backtracking search whose per-level candidate generators are the paper's
// Case I (new component: the locality's nextOpening over the starter list)
// and Case II (the partner row of the component's first element, or for a
// component of ≥ 3 positions a ball scan around it), with the
// recursion's stack written out so that it can be left and re-entered. It
// seeks — the smallest match ≥ a, Theorem 2.3 — and it steps — the match
// after the one it holds, which is the seek's own continuation: advance the
// last position, on exhaustion pop a level, then fill forward unbounded. A
// step therefore answers what a seek to the successor tuple would, without
// placing the prefix again (Lemma 5.2 nested in Theorem 5.1).
//
// The two slices belong to whoever made the cursor: an Iterator, or one
// NextGeq call.
type clauseCursor struct {
	rt *clauseRT
	t  []graph.V // len k: the match held, when ok
	// frames[j] is what the locality remembers between candidates of
	// position j under the prefix t[:j]. nil — a one-shot seek — remembers
	// nothing.
	frames []frame
	ok     bool
	// min marks, in an Iterator, a cursor whose match is the next answer.
	min bool
	// What search counted since the last fold: Stats' Candidates and
	// DeadEnds, kept here so that placing a value costs no atomic add.
	candidates, deadEnds int64
}

// fold moves what cur counted into the engine's counters.
//
//fod:hotpath
func (e *Engine) fold(cur *clauseCursor) {
	if cur.candidates != 0 {
		e.ctr.candidates.Add(cur.candidates)
		cur.candidates = 0
	}
	if cur.deadEnds != 0 {
		e.ctr.deadEnds.Add(cur.deadEnds)
		cur.deadEnds = 0
	}
}

// frame is the memory of one position of a clauseCursor between candidates
// under one prefix; search resets it with every new prefix. At a position
// that opens a component it is the locality's, and every field but the bags
// is a position in a sorted list used only once the list has verified it
// (startsAt, lowerBound32), so that a stale one costs a rank or a
// binary search, never an answer. At the second position of a pair it is
// nextPartner's, which takes at as it stands. The zero frame remembers
// nothing.
type frame struct {
	// Case I: index into the component's starter list where the next opening
	// is expected. nextPartner: index into the anchor's partner row behind
	// the candidate last returned, 0 before the first.
	at int32
	// coverLoc, once per placed prefix: its canonical bags, deduplicated
	// (nb = 0: not computed yet — a placed prefix has at least one), and
	// per bag where in c.byKernel[bag] the walk beside the starter list
	// stands. ballLoc keeps only kat: per prefix element, where in its
	// R-row that walk stands.
	nb   int32
	bags [skip.MaxSetSize]int32
	kat  [skip.MaxSetSize]int32
}

// seek moves cur to the smallest match ≥ a of its clause.
//
//fod:hotpath
func (e *Engine) seek(cur *clauseCursor, a []graph.V) bool {
	cur.ok = e.search(cur, a, 0, a[0])
	return cur.ok
}

// step moves cur from the match it holds to the next one.
//
//fod:hotpath
func (e *Engine) step(cur *clauseCursor) bool {
	cur.ok = e.search(cur, nil, e.k-1, cur.t[e.k-1]+1)
	return cur.ok
}

// search runs the clause search from the state "positions below j hold
// cur.t[:j], position j wants a value ≥ lower" to the next match. a non-nil
// means the placed prefix equals a's, so each position filled is still
// bounded below by a's; the first value that exceeds a's, and every pop,
// lifts the bound for good.
//
//fod:hotpath
func (e *Engine) search(cur *clauseCursor, a []graph.V, j int, lower graph.V) bool {
	t := cur.t
	for {
		var fr *frame
		if cur.frames != nil {
			fr = &cur.frames[j]
		}
		v := e.nextCandidate(cur.rt, j, t[:j], lower, fr)
		if v < 0 {
			if j == 0 {
				return false
			}
			cur.deadEnds++
			j--
			lower, a = t[j]+1, nil
			continue
		}
		t[j] = v
		cur.candidates++
		if j++; j == e.k {
			return true
		}
		if cur.frames != nil {
			cur.frames[j] = frame{} // position j has a new prefix
		}
		if a != nil && v != a[j-1] {
			a = nil
		}
		lower = 0
		if a != nil {
			lower = a[j]
		}
	}
}

// nextCandidate returns the smallest v ≥ lower that is admissible for
// position j given the placed prefix, or -1. fr is the position's frame, or
// nil.
//
//fod:hotpath
func (e *Engine) nextCandidate(rt *clauseRT, j int, prefix []graph.V, lower graph.V, fr *frame) graph.V {
	if lower >= e.g.N() {
		return -1
	}
	c := rt.comps[rt.compOf[j]]
	if rt.firstOf[j] == j {
		return e.loc.nextOpening(c, prefix, lower, fr)
	}
	if c.paired() {
		return e.nextPartner(rt, c, j, prefix, lower, fr)
	}
	return e.nextWithinComponent(rt, c, j, prefix, lower)
}

// nextWithinComponent handles a position whose component of three and more
// positions already has a placed element (Case II, still lazy): candidates
// live in the ball of radius R(k−1) around the component's first element;
// each is checked against the full distance pattern to the prefix, and the
// component formula is evaluated when the component completes at this
// position.
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

// componentHolds evaluates ψ_I with the component, of three and more
// positions, completed by v at its last.
//
//fod:hotpath
func (e *Engine) componentHolds(c *compRT, prefix []graph.V, v graph.V) bool {
	vals := make([]graph.V, len(c.positions))
	for i, p := range c.positions[:len(c.positions)-1] {
		vals[i] = prefix[p]
	}
	vals[len(vals)-1] = v
	return e.localEval(c, vals)
}
