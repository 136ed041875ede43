package core

import (
	"math/bits"

	"repro/internal/graph"
)

// FastCount returns |q(G)| without enumerating the result set, in
// pseudo-linear time, for queries of arity 1 and 2 — the companion result
// to the paper (Grohe & Schweikardt, "First-order query evaluation with
// cardinality conditions", cited as [18]) states that counting FO answers
// over nowhere dense classes is pseudo-linear. ok=false means the arity is
// not supported and the caller should fall back to Count().
//
// Arity 1: the clause starter lists are exact solution lists; count their
// union. Arity 2: group clauses by distance type; close-type groups are
// read off the partner rows, far-type groups counted by inclusion–exclusion
//
//	#far(L0, L1) = |L0|·|L1| − #close(L0, L1),
//
// with the close-pair term a ball scan, which costs Σ_a ‖N_R(a)‖.
//
// Higher arities are supported when every live clause's distance type is
// connected (a single component): each solution then lives inside the
// radius-R(k−1) ball of its first element and fastCountConnected counts
// by one bounded recursion per vertex.
func (e *Engine) FastCount() (int, bool) {
	switch e.k {
	case 1:
		return e.fastCount1(), true
	case 2:
		return e.fastCount2(), true
	}
	if e.allConnected() {
		return e.fastCountConnected(), true
	}
	return 0, false
}

func (e *Engine) fastCount1() int {
	seen := make([]bool, e.g.N())
	total := 0
	for _, rt := range e.clauses {
		for _, v := range rt.comps[0].starter {
			if !seen[v] {
				seen[v] = true
				total++
			}
		}
	}
	return total
}

func (e *Engine) fastCount2() int {
	groups, order := e.groupByType()
	total := 0
	for _, key := range order {
		g := groups[key]
		if g[0].clause.Type.Close(0, 1) {
			total += e.countCloseGroup(g)
		} else {
			total += e.countFarGroup(g)
		}
	}
	return total
}

// groupByType buckets the live clauses by distance type, preserving first-
// appearance order so the count is deterministic. Distinct type keys have
// distinct close matrices, hence disjoint tuple sets — group counts add.
func (e *Engine) groupByType() (map[string][]*clauseRT, []string) {
	groups := map[string][]*clauseRT{}
	var order []string
	for _, rt := range e.clauses {
		k := rt.clause.Type.Key()
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], rt)
	}
	return groups, order
}

// allConnected reports whether every live clause's distance type has a
// single component, i.e. the query only asserts "close"-connected tuples.
func (e *Engine) allConnected() bool {
	for _, rt := range e.clauses {
		if len(rt.comps) != 1 {
			return false
		}
	}
	return true
}

// fastCountConnected counts the solutions of an all-connected query of
// arity ≥ 3: every solution lives inside the radius-R(k−1) ball of its
// first element, so the count is one ball-confined recursion per vertex.
// A tuple is counted once per type group via first-match evaluation.
func (e *Engine) fastCountConnected() int {
	groups, order := e.groupByType()
	total := 0
	tuple := make([]graph.V, e.k)
	for _, key := range order {
		g := groups[key]
		for a := 0; a < e.g.N(); a++ {
			tuple[0] = a
			total += e.countConnectedRec(g, tuple, 1)
		}
	}
	return total
}

// countConnectedRec extends tuple[:j] over the ball of tuple[0], checking
// the distance pattern incrementally, and counts the completions matching
// at least one clause of the group.
func (e *Engine) countConnectedRec(group []*clauseRT, tuple []graph.V, j int) int {
	typ := group[0].clause.Type
	if j == e.k {
		for _, rt := range group {
			if e.localEval(rt.comps[0], tuple) {
				return 1
			}
		}
		return 0
	}
	count := 0
	for _, w32 := range e.loc.compBall(tuple[0]) {
		w := graph.V(w32)
		ok := true
		for i := 0; i < j; i++ {
			if e.loc.within(tuple[i], w) != typ.Close(i, j) {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		tuple[j] = w
		count += e.countConnectedRec(group, tuple, j+1)
	}
	return count
}

// countCloseGroup counts pairs (a, b) with dist(a,b) ≤ R whose component
// formula holds for at least one clause of the group. A close clause of
// arity 2 is one component of two positions, and its partner rows are its
// solutions: one clause counts its cells, several count the union of their
// rows anchor by anchor.
func (e *Engine) countCloseGroup(group []*clauseRT) int {
	if len(group) == 1 {
		return group[0].comps[0].partners.Cells()
	}
	count := 0
	rows := make([][]int32, len(group))
	for a := 0; a < e.g.N(); a++ {
		for i, rt := range group {
			rows[i] = rt.comps[0].partners.Row(a)
		}
		count += unionLen(rows)
	}
	return count
}

// unionLen returns the number of distinct values in the ascending rows,
// which it consumes.
func unionLen(rows [][]int32) int {
	count := 0
	for {
		lo, found := int32(0), false
		for _, r := range rows {
			if len(r) > 0 && (!found || r[0] < lo) {
				lo, found = r[0], true
			}
		}
		if !found {
			return count
		}
		count++
		for i, r := range rows {
			if len(r) > 0 && r[0] == lo {
				rows[i] = r[1:]
			}
		}
	}
}

// countFarGroup counts pairs (a, b) with dist(a,b) > R matching at least
// one clause, by inclusion–exclusion over the group's clauses: for each
// non-empty subset S, the tuples matching all clauses of S are pairs from
// the starter-list intersections, minus the close ones.
func (e *Engine) countFarGroup(group []*clauseRT) int {
	m := len(group)
	total := 0
	for mask := 1; mask < 1<<uint(m); mask++ {
		var l0, l1 []graph.V
		first := true
		for i := 0; i < m; i++ {
			if mask&(1<<uint(i)) == 0 {
				continue
			}
			if first {
				l0 = group[i].comps[0].starter
				l1 = group[i].comps[1].starter
				first = false
			} else {
				l0 = intersectSorted(l0, group[i].comps[0].starter)
				l1 = intersectSorted(l1, group[i].comps[1].starter)
			}
		}
		far := len(l0)*len(l1) - e.closePairs(l0, l1)
		if bits.OnesCount(uint(mask))%2 == 1 {
			total += far
		} else {
			total -= far
		}
	}
	return total
}

// closePairs counts pairs (a, b) with a ∈ A, b ∈ B, dist(a,b) ≤ R, via an
// R-ball scan per element of A: each ball is read off the locality into one
// reused buffer and dropped.
func (e *Engine) closePairs(A, B []graph.V) int {
	if len(A) == 0 || len(B) == 0 {
		return 0
	}
	inB := make([]bool, e.g.N())
	for _, b := range B {
		inB[b] = true
	}
	sc := &rowScratch{g: e.g}
	defer sc.release()
	count := 0
	for _, a := range A {
		for _, b := range e.loc.near(a, sc) {
			if inB[b] {
				count++
			}
		}
	}
	return count
}

func intersectSorted(a, b []graph.V) []graph.V {
	var out []graph.V
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}
