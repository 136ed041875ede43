package graph

import (
	"math/bits"
	"slices"
	"sort"
)

// Sub is an induced substructure G[B] (Section 2 of the paper) together with
// the vertex renaming between G and the substructure. Local vertices are
// 0..len(Orig)-1 and Orig maps them back to vertices of the parent graph;
// the local order agrees with the parent order (Orig is increasing), so
// lexicographic reasoning transfers between the two.
type Sub struct {
	G    *Graph
	Orig []V // local -> parent, strictly increasing
}

// IdentitySub returns the trivial substructure covering all of g, sharing
// g's storage (no copy).
func IdentitySub(g *Graph) *Sub {
	orig := make([]V, g.N())
	for i := range orig {
		orig[i] = i
	}
	return &Sub{G: g, Orig: orig}
}

// induceScratch is what Induce borrows: pos[v] is 1 + the local id of v in
// the set being induced and 0 outside it — all 0 while idle — and adj
// collects the rows before they are copied out at their exact length.
type induceScratch struct {
	pos []int32
	adj []int32
}

// induceFree keeps idle induceScratch, as bfsFree keeps BFS scratch.
var induceFree FreeList[*induceScratch]

// Induce returns the induced substructure G[vs]. The vertex set vs may be in
// any order and may contain duplicates; extra colors (if any) carry over.
// When vs covers the whole graph the result shares g's storage.
//
// It writes the CSR of G[B] directly, in O(|B| + Σ_{v∈B} min(deg v, |B|))
// once B is in order (a sort, or a pass over n positions where that is
// cheaper): Orig ascends, so row i is N(Orig[i]) ∩ B renamed, which comes
// out sorted.
// A vertex of degree at most |B| walks its row and reads membership off a
// position array cleared over B only; one of higher degree — a hub — walks
// B instead and searches its own row.
func Induce(g *Graph, vs []V) *Sub {
	sc, ok := induceFree.Get()
	if !ok {
		sc = new(induceScratch)
	}
	if len(sc.pos) < g.N() {
		sc.pos = make([]int32, g.N())
	}
	orig := append([]V(nil), vs...)
	if !slices.IsSorted(orig) {
		if len(orig)*bits.Len(uint(len(orig))) < g.N() {
			slices.Sort(orig)
		} else {
			// Sorting costs more than a pass over the positions: mark B
			// there and read it back in order.
			for _, v := range vs {
				sc.pos[v] = 1
			}
			orig = orig[:0]
			for v, p := range sc.pos[:g.N()] {
				if p != 0 {
					orig = append(orig, v)
					sc.pos[v] = 0
				}
			}
		}
	}
	orig = slices.Compact(orig)
	k := len(orig)
	if k == g.N() && (k == 0 || orig[0] == 0 && orig[k-1] == k-1) {
		induceFree.Put(sc, len(sc.pos))
		return &Sub{G: g, Orig: orig}
	}
	for i, v := range orig {
		sc.pos[v] = int32(i) + 1
	}
	off := blockOffsets(k)
	adj := sc.adj[:0]
	for i, v := range orig {
		row := g.Neighbors(v)
		if len(row) <= k {
			for _, w := range row {
				if j := sc.pos[w]; j != 0 {
					adj = append(adj, j-1)
				}
			}
		} else {
			for j, w := range orig {
				at, found := slices.BinarySearch(row, int32(w))
				if found {
					adj = append(adj, int32(j))
				}
				row = row[at:]
			}
		}
		off[i+1] = int32(len(adj))
	}
	for _, v := range orig {
		sc.pos[v] = 0
	}
	h := newGraph(k, g.ncol)
	h.setRows(fromBlockOffsets(off, append(make([]int32, 0, len(adj)), adj...)))
	sc.adj = adj
	induceFree.Put(sc, len(sc.pos))
	h.colors = colorsOf(g, orig)
	return &Sub{G: h, Orig: orig}
}

// colorsOf returns the color matrix whose row i is the color set of vertex
// orig[i] of g, copied as words.
func colorsOf(g *Graph, orig []V) Paged[uint64] {
	colors := PageAligned[uint64](len(orig) * g.stride)
	if g.wpc > 0 {
		for i, v := range orig {
			copy(colors[i*g.stride:], g.Colors(v))
		}
	}
	return PagedOf(colors)
}

// Local returns the local index of parent vertex v, or -1 if v is not in the
// substructure. It runs in O(log |Sub|).
func (s *Sub) Local(v V) int {
	i := sort.SearchInts(s.Orig, v)
	if i < len(s.Orig) && s.Orig[i] == v {
		return i
	}
	return -1
}

// Contains reports whether parent vertex v belongs to the substructure.
func (s *Sub) Contains(v V) bool { return s.Local(v) >= 0 }

// RemoveVertex returns G with vertex s deleted (used for the splitter-game
// recursion, where Splitter's answer s_X is removed from a bag), keeping the
// same vertex numbering convention via a Sub: Induce of every vertex but s,
// made by one copy of the CSR that drops s and renumbers the vertices above
// it. An s outside the graph deletes nothing.
func RemoveVertex(g *Graph, s V) *Sub {
	n := g.N()
	if s < 0 || s >= n {
		return IdentitySub(g)
	}
	orig := make([]V, n-1)
	for i := range orig {
		orig[i] = i
		if i >= s {
			orig[i]++
		}
	}
	off := blockOffsets(n - 1)
	adj := make([]int32, 0, g.rows.Cells()-2*g.Degree(s))
	for i, v := range orig {
		for _, w := range g.Neighbors(v) {
			switch {
			case w < int32(s):
				adj = append(adj, w)
			case w > int32(s):
				adj = append(adj, w-1)
			}
		}
		off[i+1] = int32(len(adj))
	}
	h := newGraph(n-1, g.ncol)
	h.setRows(fromBlockOffsets(off, adj))
	h.colors = colorsOf(g, orig)
	return &Sub{G: h, Orig: orig}
}

// AddColors returns a copy of g with extra color classes appended: the new
// graph has g.NumColors()+len(classes) colors, where class i colors exactly
// the vertices in classes[i] with color g.NumColors()+i. This implements the
// recolorings ("σ'-expansions") used throughout Sections 4 and 5. The copy
// shares g's rows, which are immutable, and writes only the wider color
// matrix.
func AddColors(g *Graph, classes ...[]V) *Graph {
	h := newGraph(g.n, g.ncol+len(classes))
	h.rows, h.m = g.rows, g.m
	if d, at, ok := g.degreeCount(); ok {
		h.setDegreeCount(d, at)
	}
	colors := PageAligned[uint64](g.n * h.stride)
	if g.wpc > 0 {
		for v := range g.n {
			copy(colors[v*h.stride:], g.Colors(v))
		}
	}
	for i, class := range classes {
		for _, v := range class {
			Bitset(colors[v*h.stride:]).Set(g.ncol + i)
		}
	}
	h.colors = PagedOf(colors)
	return h
}
