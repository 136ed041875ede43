package fo

import (
	"fmt"
	"strings"

	"repro/internal/graph"
)

// DistTester answers dist(a,b) ≤ r queries for a fixed graph; both a
// truncated search (graph.BFS) and the index of Proposition 4.2 implement
// it.
type DistTester interface {
	// Within reports whether dist(a, b) ≤ r.
	Within(a, b graph.V, r int) bool
}

// DistType is the r-distance type τ_r^G(ā) of a k-tuple (Section 5.1.2):
// the undirected graph on positions 1..k with an edge {i,j} iff
// dist(a_i, a_j) ≤ r. Positions here are 0-based.
type DistType struct {
	K   int
	adj []bool // k×k symmetric matrix, diagonal true
}

// NewDistType returns the edgeless distance type on k positions.
func NewDistType(k int) *DistType {
	t := &DistType{K: k, adj: make([]bool, k*k)}
	for i := 0; i < k; i++ {
		t.adj[i*k+i] = true
	}
	return t
}

// SetClose marks positions i and j as being within distance r.
func (t *DistType) SetClose(i, j int) {
	t.adj[i*t.K+j] = true
	t.adj[j*t.K+i] = true
}

// Close reports whether positions i and j are within distance r in the type.
func (t *DistType) Close(i, j int) bool { return t.adj[i*t.K+j] }

// Equal reports whether two distance types coincide.
func (t *DistType) Equal(u *DistType) bool {
	if t.K != u.K {
		return false
	}
	for i := range t.adj {
		if t.adj[i] != u.adj[i] {
			return false
		}
	}
	return true
}

// Key returns a canonical string key for map indexing.
func (t *DistType) Key() string {
	var sb strings.Builder
	for i := 0; i < t.K; i++ {
		for j := i + 1; j < t.K; j++ {
			if t.Close(i, j) {
				sb.WriteByte('1')
			} else {
				sb.WriteByte('0')
			}
		}
	}
	return sb.String()
}

// Components returns the connected components of the type as sorted
// position lists, ordered by smallest position.
func (t *DistType) Components() [][]int {
	seen := make([]bool, t.K)
	var comps [][]int
	for s := 0; s < t.K; s++ {
		if seen[s] {
			continue
		}
		stack := []int{s}
		seen[s] = true
		var comp []int
		for len(stack) > 0 {
			i := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, i)
			for j := 0; j < t.K; j++ {
				if !seen[j] && t.Close(i, j) {
					seen[j] = true
					stack = append(stack, j)
				}
			}
		}
		sortInts(comp)
		comps = append(comps, comp)
	}
	return comps
}

func (t *DistType) String() string {
	var edges []string
	for i := 0; i < t.K; i++ {
		for j := i + 1; j < t.K; j++ {
			if t.Close(i, j) {
				edges = append(edges, fmt.Sprintf("{%d,%d}", i, j))
			}
		}
	}
	if len(edges) == 0 {
		return fmt.Sprintf("τ(k=%d, discrete)", t.K)
	}
	return fmt.Sprintf("τ(k=%d, %s)", t.K, strings.Join(edges, " "))
}

// TypeOf computes τ_r^G(ā) using the given distance tester.
func TypeOf(d DistTester, a []graph.V, r int) *DistType {
	t := NewDistType(len(a))
	for i := range a {
		for j := i + 1; j < len(a); j++ {
			if d.Within(a[i], a[j], r) {
				t.SetClose(i, j)
			}
		}
	}
	return t
}

// AllDistTypes enumerates all 2^(k(k-1)/2) distance types on k positions
// (the set 𝒯_k of the paper). For the small arities used in practice this
// is tiny.
func AllDistTypes(k int) []*DistType {
	pairs := k * (k - 1) / 2
	out := make([]*DistType, 0, 1<<uint(pairs))
	for mask := 0; mask < 1<<uint(pairs); mask++ {
		t := NewDistType(k)
		p := 0
		for i := 0; i < k; i++ {
			for j := i + 1; j < k; j++ {
				if mask&(1<<uint(p)) != 0 {
					t.SetClose(i, j)
				}
				p++
			}
		}
		out = append(out, t)
	}
	return out
}

// Consistent reports whether the type is closed under the triangle-ish
// constraint it can never violate for an actual tuple: closeness is not
// transitive in general, so every type is realizable; Consistent only
// rejects types whose diagonal was corrupted. It exists to document that,
// unlike equality types, all distance types are admissible.
func (t *DistType) Consistent() bool {
	for i := 0; i < t.K; i++ {
		if !t.Close(i, i) {
			return false
		}
	}
	return true
}

func sortInts(xs []int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}
