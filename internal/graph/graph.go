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
	"math"
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
	// lost an edge — the first MaxDegree call counts it (DegreeAbove only
	// when no row is longer than its bound), and readers of one version may
	// count it at once.
	degrees atomic.Uint64
	n       int
	m       int         // number of undirected edges
	rows    Rows[int32] // sorted adjacency lists
	ncol    int
	// colors holds the color sets as a matrix of stride words a vertex, the
	// first wpc of them its set: row v at words [v*stride, v*stride+wpc)
	// (colorLayout). Patch copies the pages a color edit dirties.
	colors      Paged[uint64]
	wpc, stride int
}

// maxColors is the most colors a graph holds: a vertex's words fit a page.
const maxColors = 64 * pageLen

// Builder accumulates vertices, edges and colors and produces a Graph.
// Duplicate edges and self-loops are ignored.
type Builder struct {
	n, ncol int
	stride  int
	us, vs  []int32
	// colors is the colour matrix Build hands to the graph, laid out as the
	// graph's: SetColor sets its bits.
	colors []uint64
}

// NewBuilder returns a builder for a graph with n vertices and ncolors
// available colors, at most 64 × 256 = 16 384.
func NewBuilder(n, ncolors int) *Builder {
	if n < 0 {
		panic(fmt.Sprintf("graph: negative vertex count %d", n))
	}
	_, stride := colorLayout(ncolors)
	return &Builder{n: n, ncol: ncolors, stride: stride, colors: PageAligned[uint64](n * stride)}
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
	Bitset(b.colors[v*b.stride:]).Set(c)
}

// N returns the number of vertices the builder was created with.
func (b *Builder) N() int { return b.n }

// Build finalizes the graph. The builder may not be reused afterwards.
//
// Two counting passes lay the rows out sorted, with no comparison sort: the
// first groups the arcs — both directions of every edge — by head, the
// second walks the heads in ascending order and appends each to the row of
// its tail. A duplicate edge lands next to its first copy and is dropped.
func (b *Builder) Build() *Graph {
	n := b.n
	g := newGraph(n, b.ncol)
	// A vertex heads as many arcs as it tails: off is the row offsets and
	// the head groups' offsets alike.
	off := blockOffsets(n)
	for i := range b.us {
		off[b.us[i]+1]++
		off[b.vs[i]+1]++
	}
	for v := 1; v <= n; v++ {
		off[v] += off[v-1]
	}
	next := make([]int32, n)
	copy(next, off)
	tails := make([]int32, off[n])
	for i := range b.us {
		u, v := b.us[i], b.vs[i]
		tails[next[v]] = u
		next[v]++
		tails[next[u]] = v
		next[u]++
	}
	copy(next, off)
	adj := make([]int32, off[n])
	dups := false
	for h := range n {
		for _, t := range tails[off[h]:off[h+1]] {
			if i := next[t]; i > off[t] && adj[i-1] == int32(h) {
				dups = true
				continue
			}
			adj[next[t]] = int32(h)
			next[t]++
		}
	}
	if dups {
		// Close the gaps the dropped copies left, row by row.
		k := int32(0)
		for v := range n {
			lo, hi := off[v], next[v]
			off[v] = k
			k += int32(copy(adj[k:], adj[lo:hi]))
		}
		off[n] = k
		adj = adj[:k]
	}
	g.setRows(fromBlockOffsets(off, adj))
	g.colors = PagedOf(b.colors)
	b.us, b.vs, b.colors = nil, nil, nil
	return g
}

// colorLayout returns the words of a vertex's color set, wpc = ⌈ncol/64⌉,
// and the words a vertex takes in the color matrix: wpc rounded up to a
// power of two, so no row straddles a page.
func colorLayout(ncol int) (wpc, stride int) {
	if ncol > maxColors {
		panic(fmt.Sprintf("graph: %d colors, a graph holds at most %d", ncol, maxColors))
	}
	wpc = (ncol + 63) / 64
	for stride < wpc {
		stride = max(1, 2*stride)
	}
	return wpc, stride
}

// newGraph returns the shell of a graph on n vertices and ncol colors.
func newGraph(n, ncol int) *Graph {
	g := &Graph{n: n, ncol: ncol}
	g.wpc, g.stride = colorLayout(ncol)
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
	d, _ := g.DegreeAbove(math.MaxInt)
	return d
}

// DegreeAbove reports whether some vertex has more than k neighbours, with a
// degree that settles it: the maximum when it is carried or when no row is
// longer than k (it is counted then, and kept, as MaxDegree keeps it), and
// otherwise the degree of the first vertex by id with more than k, a lower
// bound of the maximum at which the count stops.
func (g *Graph) DegreeAbove(k int) (d int, above bool) {
	if d, _, ok := g.degreeCount(); ok {
		return d, d > k
	}
	at := 0
	for v := 0; v < g.n; v++ {
		switch l := g.rows.Len(v); {
		case l > k:
			return l, true
		case l > d:
			d, at = l, 1
		case l == d:
			at++
		}
	}
	g.setDegreeCount(d, at)
	return d, false
}

// String returns a short description, e.g. "graph(n=10, m=9, c=2)".
func (g *Graph) String() string {
	return fmt.Sprintf("graph(n=%d, m=%d, c=%d)", g.n, g.m, g.ncol)
}
