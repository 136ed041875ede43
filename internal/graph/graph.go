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
	"sync/atomic"
)

// V is a vertex identifier. Vertices of a graph with n vertices are exactly
// 0..n-1; the paper's linear order on the domain is the order on V.
type V = int

// Color identifies one of the unary color relations C_0..C_{c-1}.
type Color = int

// Graph is an immutable colored graph. Build one with a Builder.
type Graph struct {
	// degrees packs the maximum degree plus one (high half) and how many
	// vertices have it (low half); 0 until counted. Patch carries it over the
	// rows it touches; where it cannot — the last vertex of maximum degree
	// lost an edge — the first MaxDegree call counts it, and readers of one
	// version may count it at once.
	degrees atomic.Uint64
	n       int
	m       int         // number of undirected edges
	rows    Rows[int32] // sorted adjacency lists
	ncol    int
	// colors holds the color sets as a matrix of stride words a vertex, the
	// first wpc = ⌈ncol/64⌉ of them its set: row v at words [v*stride,
	// v*stride+wpc). stride is wpc rounded up to a power of two, so no row
	// straddles a page, and Patch copies the pages a color edit dirties.
	colors      Paged[uint64]
	wpc, stride int
}

// maxColors is the most colors a graph holds: a vertex's words fit a page.
const maxColors = 64 * pageLen

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
// available colors, at most 64 × 256 = 16 384.
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
	colors := PageAligned[uint64](b.n * g.stride)
	for v, cs := range b.cols {
		for _, c := range cs {
			Bitset(colors[v*g.stride:]).Set(c)
		}
	}
	g.colors = PagedOf(colors)
	return g
}

// newGraph returns the shell of a graph on n vertices and ncol colors.
func newGraph(n, ncol int) *Graph {
	if ncol > maxColors {
		panic(fmt.Sprintf("graph: %d colors, a graph holds at most %d", ncol, maxColors))
	}
	g := &Graph{n: n, ncol: ncol, wpc: (ncol + 63) / 64}
	for g.stride < g.wpc {
		g.stride = max(1, 2*g.stride)
	}
	return g
}

// setRows installs the adjacency rows and what is counted from them.
func (g *Graph) setRows(rows Rows[int32]) {
	g.rows, g.m = rows, rows.Cells()/2
}

// degreeCount is the maximum degree and how many vertices have it, as
// counted or carried; ok is false when neither has happened yet.
func (g *Graph) degreeCount() (d, at int, ok bool) {
	w := g.degrees.Load()
	return int(w>>32) - 1, int(uint32(w)), w != 0
}

func (g *Graph) setDegreeCount(d, at int) {
	g.degrees.Store(uint64(d+1)<<32 | uint64(uint32(at)))
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
func (g *Graph) Colors(v V) Bitset {
	if g.wpc == 0 {
		return nil
	}
	return g.colors.Run(v*g.stride, g.wpc)
}

// ColorPages returns how many pages the color words of g are held in and
// how many of them h, another version of the graph, holds too.
func (g *Graph) ColorPages(h *Graph) (pages, shared int) {
	for pi := range g.colors.Pages() {
		if g.colors.SharesPage(&h.colors, pi) {
			shared++
		}
	}
	return g.colors.Pages(), shared
}

// MaxDegree returns the maximum vertex degree: carried from the version a
// Patch derived g from, or counted over the n rows on the first call and
// kept.
func (g *Graph) MaxDegree() int {
	if d, _, ok := g.degreeCount(); ok {
		return d
	}
	d, at := 0, 0
	for v := 0; v < g.n; v++ {
		switch l := g.rows.Len(v); {
		case l > d:
			d, at = l, 1
		case l == d:
			at++
		}
	}
	g.setDegreeCount(d, at)
	return d
}

// String returns a short description, e.g. "graph(n=10, m=9, c=2)".
func (g *Graph) String() string {
	return fmt.Sprintf("graph(n=%d, m=%d, c=%d)", g.n, g.m, g.ncol)
}
