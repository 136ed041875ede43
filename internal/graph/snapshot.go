package graph

import "fmt"

// Parts is the flat serialized form of a Graph: the CSR adjacency and the
// color bitsets split into fixed-width columns. The slices alias the
// graph's storage — treat them as read-only.
type Parts struct {
	N       int
	NColors int
	Off     []int32 // len N+1
	Adj     []int32 // concatenated sorted adjacency lists
	// ColorOff[v+1]-ColorOff[v] is the number of bitset words of vertex v:
	// 0 for an uncolored vertex, ⌈NColors/64⌉ otherwise.
	ColorOff   []int32
	ColorWords []uint64
}

// Parts returns the serialized form of the graph.
func (g *Graph) Parts() Parts {
	p := Parts{N: g.n, NColors: g.ncol, ColorOff: make([]int32, g.n+1)}
	p.Off, p.Adj = g.rows.Flat()
	// A vertex without colors has no row in the file.
	for v := 0; v < g.n; v++ {
		p.ColorOff[v+1] = p.ColorOff[v]
		if !g.Colors(v).Empty() {
			p.ColorOff[v+1] += int32(g.wpc)
		}
	}
	p.ColorWords = make([]uint64, 0, p.ColorOff[g.n])
	for v := 0; v < g.n; v++ {
		if p.ColorOff[v+1] > p.ColorOff[v] {
			p.ColorWords = append(p.ColorWords, g.Colors(v)...)
		}
	}
	return p
}

// FromParts reconstructs a Graph from its serialized form, validating the
// CSR invariants the query paths rely on: sorted loop-free adjacency
// lists over [0,N), symmetric edges, and per-vertex color rows of the
// exact bitset width. A corrupted snapshot yields an error, never a
// malformed graph.
func FromParts(p Parts) (*Graph, error) {
	if p.N < 0 || p.NColors < 0 || p.NColors > maxColors {
		return nil, fmt.Errorf("graph: snapshot has n=%d, colors=%d", p.N, p.NColors)
	}
	n := p.N
	if err := CheckRows(p.Off, p.Adj, n, n); err != nil {
		return nil, fmt.Errorf("graph: snapshot adjacency: %w", err)
	}
	if len(p.Adj)%2 != 0 {
		return nil, fmt.Errorf("graph: odd arc count %d cannot be symmetric", len(p.Adj))
	}
	g := newGraph(n, p.NColors)
	g.setRows(FromFlat(p.Off, p.Adj))
	// Symmetry in O(n+m): lists are sorted, so for a fixed w the forward
	// arcs (v,w) with v<w arrive in increasing v — exactly the order of
	// the sub-w prefix of w's list. A cursor per vertex matches them up.
	cur := make([]int32, n)
	for v := 0; v < n; v++ {
		for _, w := range p.Adj[p.Off[v]:p.Off[v+1]] {
			if int32(v) == w {
				return nil, fmt.Errorf("graph: vertex %d has a self-loop", v)
			}
			if int32(v) > w {
				continue
			}
			c := p.Off[w] + cur[w]
			if c >= p.Off[w+1] || p.Adj[c] != int32(v) {
				return nil, fmt.Errorf("graph: arc %d→%d has no reverse arc", v, w)
			}
			cur[w]++
		}
	}
	for w := 0; w < n; w++ {
		if c := p.Off[w] + cur[w]; c < p.Off[w+1] && p.Adj[c] < int32(w) {
			return nil, fmt.Errorf("graph: arc %d→%d has no reverse arc", p.Adj[c], w)
		}
	}
	wpc := (p.NColors + 63) / 64
	if len(p.ColorOff) != n+1 || p.ColorOff[0] != 0 || int(p.ColorOff[n]) != len(p.ColorWords) {
		return nil, fmt.Errorf("graph: snapshot color offsets malformed")
	}
	colors := PageAligned[uint64](n * g.stride)
	for v := 0; v < n; v++ {
		lo, hi := p.ColorOff[v], p.ColorOff[v+1]
		if lo > hi || int(hi) > len(p.ColorWords) {
			return nil, fmt.Errorf("graph: color offsets of vertex %d out of order", v)
		}
		switch int(hi - lo) {
		case 0:
		case wpc:
			copy(colors[v*g.stride:], p.ColorWords[lo:hi])
		default:
			return nil, fmt.Errorf("graph: color row of vertex %d has %d words, want 0 or %d", v, hi-lo, wpc)
		}
	}
	g.colors = PagedOf(colors)
	return g, nil
}
