// Package graph implements finite colored graphs in the sense of Section 2
// of Schweikardt, Segoufin & Vigny, "Enumeration for FO Queries over Nowhere
// Dense Graphs": structures over the schema σ_c = {E, C_1, …, C_c} with a
// symmetric binary relation E and unary color relations C_i.
//
// Vertices are the integers 0..n-1, so the natural linear order on the
// domain required by the paper is the integer order. Adjacency lists are
// stored sorted, giving O(log deg) edge tests and deterministic iteration.
package graph

import (
	"fmt"
	"sort"
)

// V is a vertex identifier. Vertices of a graph with n vertices are exactly
// 0..n-1; the paper's linear order on the domain is the order on V.
type V = int

// Color identifies one of the unary color relations C_0..C_{c-1}.
type Color = int

// Graph is an immutable colored graph. Build one with a Builder.
type Graph struct {
	n    int
	m    int         // number of undirected edges
	rows Rows[int32] // sorted adjacency lists
	// maxDeg is the maximum degree and maxDegAt how many vertices have it:
	// Patch carries both over the rows it touches instead of scanning n.
	maxDeg, maxDegAt int
	ncol             int
	// colors holds the color sets as one matrix of wpc = ⌈ncol/64⌉ words a
	// vertex, row v at colors[v*wpc:(v+1)*wpc]: one allocation, and one
	// copy when Patch derives a version with a color changed.
	colors []uint64
	wpc    int
}

// Builder accumulates vertices, edges and colors and produces a Graph.
// Duplicate edges and self-loops are ignored.
type Builder struct {
	n    int
	ncol int
	us   []int32
	vs   []int32
	cols map[V][]Color
}

// NewBuilder returns a builder for a graph with n vertices and ncolors
// available colors.
func NewBuilder(n, ncolors int) *Builder {
	if n < 0 {
		panic(fmt.Sprintf("graph: negative vertex count %d", n))
	}
	return &Builder{n: n, ncol: ncolors, cols: make(map[V][]Color)}
}

// AddEdge records the undirected edge {u, v}. Self-loops are dropped.
func (b *Builder) AddEdge(u, v V) {
	if u < 0 || u >= b.n || v < 0 || v >= b.n {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", u, v, b.n))
	}
	if u == v {
		return
	}
	b.us = append(b.us, int32(u))
	b.vs = append(b.vs, int32(v))
}

// SetColor adds color c to vertex v.
func (b *Builder) SetColor(v V, c Color) {
	if v < 0 || v >= b.n {
		panic(fmt.Sprintf("graph: vertex %d out of range [0,%d)", v, b.n))
	}
	if c < 0 || c >= b.ncol {
		panic(fmt.Sprintf("graph: color %d out of range [0,%d)", c, b.ncol))
	}
	b.cols[v] = append(b.cols[v], c)
}

// N returns the number of vertices the builder was created with.
func (b *Builder) N() int { return b.n }

// Build finalizes the graph. The builder may not be reused afterwards.
func (b *Builder) Build() *Graph {
	deg := make([]int32, b.n+1)
	for i := range b.us {
		deg[b.us[i]+1]++
		deg[b.vs[i]+1]++
	}
	for i := 1; i <= b.n; i++ {
		deg[i] += deg[i-1]
	}
	adj := make([]int32, deg[b.n])
	pos := make([]int32, b.n)
	copy(pos, deg[:b.n])
	for i := range b.us {
		u, v := b.us[i], b.vs[i]
		adj[pos[u]] = v
		pos[u]++
		adj[pos[v]] = u
		pos[v]++
	}
	// Sort and deduplicate each list in place, compacting the storage.
	g := newGraph(b.n, b.ncol)
	off := make([]int32, b.n+1)
	out := adj[:0]
	for v := 0; v < b.n; v++ {
		lo, hi := deg[v], deg[v+1]
		lst := adj[lo:hi]
		sort.Slice(lst, func(i, j int) bool { return lst[i] < lst[j] })
		start := len(out)
		for i, w := range lst {
			if i > 0 && w == lst[i-1] {
				continue
			}
			out = append(out, w)
		}
		off[v] = int32(start)
		off[v+1] = int32(len(out))
	}
	g.setRows(FromFlat(off, out))
	g.colors = make([]uint64, b.n*g.wpc)
	for v, cs := range b.cols {
		for _, c := range cs {
			g.Colors(v).Set(c)
		}
	}
	return g
}

// newGraph returns the shell of a graph on n vertices and ncol colors.
func newGraph(n, ncol int) *Graph { return &Graph{n: n, ncol: ncol, wpc: (ncol + 63) / 64} }

// setRows installs the adjacency rows and what is counted from them.
func (g *Graph) setRows(rows Rows[int32]) {
	g.rows, g.m = rows, rows.Cells()/2
	g.scanMaxDegree()
}

func (g *Graph) scanMaxDegree() {
	g.maxDeg, g.maxDegAt = 0, 0
	for v := 0; v < g.n; v++ {
		g.countDegree(g.rows.Len(v), 1)
	}
}

// countDegree records that by more vertices (fewer, when negative) have
// degree d. A count that falls to zero leaves maxDeg stale; Patch, the only
// caller that takes vertices away, rescans then.
func (g *Graph) countDegree(d, by int) {
	switch {
	case d > g.maxDeg:
		g.maxDeg, g.maxDegAt = d, by
	case d == g.maxDeg:
		g.maxDegAt += by
	}
}

// N returns the number of vertices |G|.
func (g *Graph) N() int { return g.n }

// M returns the number of undirected edges.
func (g *Graph) M() int { return g.m }

// Size returns ‖G‖ = |V| + |E|, the encoding size used by the paper.
func (g *Graph) Size() int { return g.n + g.m }

// NumColors returns the number of available colors c of the schema σ_c.
func (g *Graph) NumColors() int { return g.ncol }

// Degree returns the degree of v.
func (g *Graph) Degree(v V) int { return g.rows.Len(v) }

// Neighbors returns the sorted adjacency list of v. The returned slice is
// shared with the graph and must not be modified.
func (g *Graph) Neighbors(v V) []int32 { return g.rows.Row(v) }

// HasEdge reports whether {u, v} ∈ E(G).
func (g *Graph) HasEdge(u, v V) bool {
	if u < 0 || v < 0 || u >= g.n || v >= g.n {
		return false
	}
	if g.Degree(v) < g.Degree(u) {
		u, v = v, u
	}
	ns := g.Neighbors(u)
	i := sort.Search(len(ns), func(i int) bool { return ns[i] >= int32(v) })
	return i < len(ns) && ns[i] == int32(v)
}

// HasColor reports whether v ∈ C_c(G).
func (g *Graph) HasColor(v V, c Color) bool {
	if v < 0 || v >= g.n {
		return false
	}
	return g.Colors(v).Has(c)
}

// Colors returns the color set of v: a row of the graph's storage, not to
// be modified.
func (g *Graph) Colors(v V) Bitset { return g.colors[v*g.wpc : (v+1)*g.wpc] }

// MaxDegree returns the maximum vertex degree. It is kept, not scanned for:
// every version of a graph knows it.
func (g *Graph) MaxDegree() int { return g.maxDeg }

// String returns a short description, e.g. "graph(n=10, m=9, c=2)".
func (g *Graph) String() string {
	return fmt.Sprintf("graph(n=%d, m=%d, c=%d)", g.n, g.m, g.ncol)
}
