package graph

import (
	"slices"
	"sort"
)

// The constructions as they were before Build laid rows out by counting
// passes and Induce, RemoveVertex and AddColors wrote their CSR directly: a
// renaming map, a Builder round trip, one comparison sort a row and a map of
// colours. They are the reference the constructions must equal through
// Parts.

// refBuilder is the reference Builder.
type refBuilder struct {
	n    int
	ncol int
	us   []int32
	vs   []int32
	cols map[V][]Color
}

func newRefBuilder(n, ncolors int) *refBuilder {
	return &refBuilder{n: n, ncol: ncolors, cols: make(map[V][]Color)}
}

func (b *refBuilder) AddEdge(u, v V) {
	if u == v {
		return
	}
	b.us = append(b.us, int32(u))
	b.vs = append(b.vs, int32(v))
}

func (b *refBuilder) SetColor(v V, c Color) { b.cols[v] = append(b.cols[v], c) }

func (b *refBuilder) Build() *Graph {
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

func refInduce(g *Graph, vs []V) *Sub {
	if len(vs) >= g.N() {
		seen := make([]bool, g.N())
		distinct := 0
		for _, v := range vs {
			if !seen[v] {
				seen[v] = true
				distinct++
			}
		}
		if distinct == g.N() {
			return IdentitySub(g)
		}
	}
	orig := append([]V(nil), vs...)
	sort.Ints(orig)
	orig = slices.Compact(orig)
	toLocal := make(map[V]int, len(orig))
	for i, v := range orig {
		toLocal[v] = i
	}
	b := newRefBuilder(len(orig), g.NumColors())
	for i, v := range orig {
		for _, w := range g.Neighbors(v) {
			if j, ok := toLocal[int(w)]; ok && i < j {
				b.AddEdge(i, j)
			}
		}
		if cs := g.Colors(v); cs != nil {
			for c := 0; c < g.NumColors(); c++ {
				if cs.Has(c) {
					b.SetColor(i, c)
				}
			}
		}
	}
	return &Sub{G: b.Build(), Orig: orig}
}

func refRemoveVertex(g *Graph, s V) *Sub {
	vs := make([]V, 0, g.N()-1)
	for v := 0; v < g.N(); v++ {
		if v != s {
			vs = append(vs, v)
		}
	}
	return refInduce(g, vs)
}

func refAddColors(g *Graph, classes ...[]V) *Graph {
	nc := g.NumColors() + len(classes)
	b := newRefBuilder(g.N(), nc)
	for v := 0; v < g.N(); v++ {
		for _, w := range g.Neighbors(v) {
			if v < int(w) {
				b.AddEdge(v, int(w))
			}
		}
		if cs := g.Colors(v); cs != nil {
			for c := 0; c < g.NumColors(); c++ {
				if cs.Has(c) {
					b.SetColor(v, c)
				}
			}
		}
	}
	for i, class := range classes {
		for _, v := range class {
			b.SetColor(v, g.NumColors()+i)
		}
	}
	return b.Build()
}

// The reference, for the tests of package graph_test, which may import the
// generators.
var (
	NewRefBuilder   = newRefBuilder
	RefInduce       = refInduce
	RefRemoveVertex = refRemoveVertex
	RefAddColors    = refAddColors
)
