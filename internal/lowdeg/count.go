package lowdeg

import (
	"math/bits"

	"repro/internal/graph"
)

// FastCount returns |q(G)| without enumerating the result set — the
// Grohe–Schweikardt counting result ([18] of the paper), which on
// low-degree graphs costs one ball scan per vertex. Supported shapes:
// arity 1 (starter union), arity 2 (close groups by ball scan, far groups
// by inclusion–exclusion) and any arity whose live clause types are all
// connected (single component: a recursive ball-confined count). ok=false
// means the query shape is not supported and the caller should fall back
// to Count().
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
// appearance order so the count is deterministic.
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

// countCloseGroup counts pairs (a, b) with dist(a,b) ≤ R whose component
// formula holds for at least one clause of the group, by scanning the
// precomputed R-ball row of every vertex.
func (e *Engine) countCloseGroup(group []*clauseRT) int {
	count := 0
	vals := make([]graph.V, 2)
	for a := 0; a < e.g.N(); a++ {
		row := e.ballRAdj[e.ballROff[a]:e.ballROff[a+1]]
		for _, b32 := range row {
			vals[0], vals[1] = a, graph.V(b32)
			for _, rt := range group {
				if e.localEval(rt.comps[0], vals) {
					count++
					break
				}
			}
		}
	}
	return count
}

// countFarGroup counts pairs (a, b) with dist(a,b) > R matching at least
// one clause, by inclusion–exclusion over the group's clauses:
//
//	#far(L0, L1) = |L0|·|L1| − #close(L0, L1).
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

// closePairs counts pairs (a, b) with a ∈ A, b ∈ B, dist(a,b) ≤ R, via the
// precomputed R-ball rows.
func (e *Engine) closePairs(A, B []graph.V) int {
	if len(A) == 0 || len(B) == 0 {
		return 0
	}
	inB := make([]bool, e.g.N())
	for _, b := range B {
		inB[b] = true
	}
	count := 0
	for _, a := range A {
		row := e.ballRAdj[e.ballROff[a]:e.ballROff[a+1]]
		for _, b32 := range row {
			if inB[b32] {
				count++
			}
		}
	}
	return count
}

// allConnected reports whether every live clause's distance type has a
// single component, i.e. the query only asserts "close" patterns.
func (e *Engine) allConnected() bool {
	for _, rt := range e.clauses {
		if len(rt.comps) != 1 {
			return false
		}
	}
	return true
}

// fastCountConnected counts the solutions of an all-connected query of
// any arity: every solution tuple lives inside the radius-R(k−1) ball of
// its first element, so the count is one bounded recursion per vertex —
// Σ_a d^{R(k−1)·(k−1)} work, linear for constant degree. Clauses are
// grouped by type (distinct types yield disjoint tuple sets) and a tuple
// is counted once per group via first-match evaluation.
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
	row := e.ballCRow(tuple[0])
	for _, w32 := range row {
		w := graph.V(w32)
		ok := true
		for i := 0; i < j; i++ {
			if e.within(tuple[i], w) != typ.Close(i, j) {
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
