// Package wcol implements the weak r-accessibility characterization of
// nowhere dense classes from Section 2 of the paper: a class C is nowhere
// dense iff for all r and ε there is an N such that every G ∈ C with
// |G| > N admits a linear order under which every vertex weakly
// r-accesses at most |G|^ε vertices. When the bound is a constant c_r the
// class has *bounded expansion* — the hypothesis of the earlier
// enumeration result [21] that this paper removes.
//
// A vertex b is weakly r-accessible from a (under an order <) if some
// path of length ≤ r connects a to b and b is smaller than a and than
// every other vertex on the path — the "weakly r-reachable set"
// WReach_r[a] of the generalized coloring number literature. The package
// provides a degeneracy (smallest-last) ordering, exact WReach counts,
// and the resulting weak coloring number wcol_r.
package wcol

import (
	"fmt"

	"repro/internal/graph"
)

// DegeneracyOrder returns a smallest-last ordering: repeatedly remove a
// minimum-degree vertex; the removal sequence reversed is the order. The
// result maps rank → vertex; low ranks are "small" in the order. This is
// the standard O(n + m) bucket implementation.
func DegeneracyOrder(g *graph.Graph) []graph.V {
	n := g.N()
	deg := make([]int, n)
	maxDeg := 0
	for v := 0; v < n; v++ {
		deg[v] = g.Degree(v)
		if deg[v] > maxDeg {
			maxDeg = deg[v]
		}
	}
	// Bucket queue over degrees.
	buckets := make([][]graph.V, maxDeg+1)
	for v := 0; v < n; v++ {
		buckets[deg[v]] = append(buckets[deg[v]], v)
	}
	removed := make([]bool, n)
	orderRev := make([]graph.V, 0, n)
	cur := 0
	for len(orderRev) < n {
		for cur > 0 && (cur > maxDeg || len(buckets[cur]) == 0) {
			cur--
		}
		for cur <= maxDeg && len(buckets[cur]) == 0 {
			cur++
		}
		v := buckets[cur][len(buckets[cur])-1]
		buckets[cur] = buckets[cur][:len(buckets[cur])-1]
		if removed[v] || deg[v] != cur {
			// Stale bucket entry; the vertex moved to a lower bucket.
			continue
		}
		removed[v] = true
		orderRev = append(orderRev, v)
		for _, w := range g.Neighbors(v) {
			if !removed[w] {
				deg[w]--
				buckets[deg[w]] = append(buckets[deg[w]], int(w))
				if deg[w] < cur {
					cur = deg[w]
				}
			}
		}
	}
	// Reverse: vertices removed first are largest in the order.
	order := make([]graph.V, n)
	for i, v := range orderRev {
		order[n-1-i] = v
	}
	return order
}

// DegeneracyFast returns the graph's degeneracy in O(n + m) with the same
// bucket queue DegeneracyOrder uses: the answer is the maximum degree a
// vertex has at the moment it is removed by the smallest-last process.
// It always equals the quadratic reference Degeneracy below; the engine
// selection layer of the repro facade calls it on every auto-mode build,
// so it must stay linear.
func DegeneracyFast(g *graph.Graph) int {
	n := g.N()
	deg := make([]int, n)
	maxDeg := 0
	for v := 0; v < n; v++ {
		deg[v] = g.Degree(v)
		if deg[v] > maxDeg {
			maxDeg = deg[v]
		}
	}
	buckets := make([][]graph.V, maxDeg+1)
	for v := 0; v < n; v++ {
		buckets[deg[v]] = append(buckets[deg[v]], v)
	}
	removed := make([]bool, n)
	left, cur, d := n, 0, 0
	for left > 0 {
		for cur > 0 && (cur > maxDeg || len(buckets[cur]) == 0) {
			cur--
		}
		for cur <= maxDeg && len(buckets[cur]) == 0 {
			cur++
		}
		v := buckets[cur][len(buckets[cur])-1]
		buckets[cur] = buckets[cur][:len(buckets[cur])-1]
		if removed[v] || deg[v] != cur {
			// Stale bucket entry; the vertex moved to a lower bucket.
			continue
		}
		removed[v] = true
		left--
		if cur > d {
			d = cur
		}
		for _, w := range g.Neighbors(v) {
			if !removed[w] {
				deg[w]--
				buckets[deg[w]] = append(buckets[deg[w]], int(w))
				if deg[w] < cur {
					cur = deg[w]
				}
			}
		}
	}
	return d
}

// Degeneracy returns the graph's degeneracy (the maximum min-degree over
// the removal sequence), a classic sparsity measure: wcol_1 equals it
// under the smallest-last order. It is the O(n²) reference implementation
// that DegeneracyFast is differential-tested against.
func Degeneracy(g *graph.Graph) int {
	n := g.N()
	deg := make([]int, n)
	for v := 0; v < n; v++ {
		deg[v] = g.Degree(v)
	}
	removed := make([]bool, n)
	d := 0
	for it := 0; it < n; it++ {
		best, bestDeg := -1, n+1
		for v := 0; v < n; v++ {
			if !removed[v] && deg[v] < bestDeg {
				best, bestDeg = v, deg[v]
			}
		}
		if bestDeg > d {
			d = bestDeg
		}
		removed[best] = true
		for _, w := range g.Neighbors(best) {
			if !removed[w] {
				deg[w]--
			}
		}
	}
	return d
}

// WReachCounts returns, for every vertex a, |WReach_r[a] \ {a}| under the
// given order: the number of vertices weakly r-accessible from a.
//
// Algorithm: process sources b in increasing rank; BFS from b restricted
// to vertices of larger rank up to depth r; every reached vertex a has
// b ∈ WReach_r[a]. Total cost Σ_b ‖restricted ball‖.
func WReachCounts(g *graph.Graph, order []graph.V, r int) []int {
	n := g.N()
	if len(order) != n {
		panic(fmt.Sprintf("wcol: order has %d entries for %d vertices", len(order), n))
	}
	rank := make([]int, n)
	for i, v := range order {
		rank[v] = i
	}
	counts := make([]int, n)
	depth := make([]int32, n)
	epoch := make([]int32, n)
	for i := range epoch {
		epoch[i] = -1
	}
	var queue []graph.V
	for i, b := range order {
		// BFS from b through vertices of rank > rank[b].
		queue = append(queue[:0], b)
		epoch[b] = int32(i)
		depth[b] = 0
		for head := 0; head < len(queue); head++ {
			v := queue[head]
			if int(depth[v]) >= r {
				continue
			}
			for _, w := range g.Neighbors(v) {
				if epoch[w] == int32(i) || rank[w] <= i {
					continue
				}
				epoch[w] = int32(i)
				depth[w] = depth[v] + 1
				queue = append(queue, int(w))
			}
		}
		for _, v := range queue[1:] {
			counts[v]++
		}
	}
	return counts
}

// WCol returns wcol_r(G, order) = max_a |WReach_r[a] \ {a}|.
func WCol(g *graph.Graph, order []graph.V, r int) int {
	max := 0
	for _, c := range WReachCounts(g, order, r) {
		if c > max {
			max = c
		}
	}
	return max
}
