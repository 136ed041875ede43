package graph

import (
	"fmt"
	"slices"
	"sort"
)

// EditOp is one kind of graph mutation.
type EditOp uint8

const (
	// AddEdge inserts the undirected edge {U, V}. Inserting an existing
	// edge or a self-loop is a no-op (mirroring Builder.AddEdge).
	AddEdge EditOp = iota
	// RemoveEdge deletes the undirected edge {U, V}; absent edges are a
	// no-op.
	RemoveEdge
	// AddColor adds color Color to vertex U (V is ignored).
	AddColor
	// RemoveColor removes color Color from vertex U (V is ignored).
	RemoveColor
)

// String returns the wire name of the operation ("add_edge", …).
func (op EditOp) String() string {
	switch op {
	case AddEdge:
		return "add_edge"
	case RemoveEdge:
		return "remove_edge"
	case AddColor:
		return "add_color"
	case RemoveColor:
		return "remove_color"
	}
	return fmt.Sprintf("op(%d)", uint8(op))
}

// ParseEditOp inverts EditOp.String.
func ParseEditOp(s string) (EditOp, error) {
	switch s {
	case "add_edge":
		return AddEdge, nil
	case "remove_edge":
		return RemoveEdge, nil
	case "add_color":
		return AddColor, nil
	case "remove_color":
		return RemoveColor, nil
	}
	return 0, fmt.Errorf("graph: unknown edit op %q", s)
}

// Edit is one mutation of a colored graph. The vertex set is fixed: edits
// change edges and colors, never |V|, so vertex ids (and with them every
// lexicographic guarantee of the enumeration layer) are stable across
// versions.
type Edit struct {
	Op   EditOp
	U, V V
	// Color is the color relation touched by AddColor/RemoveColor.
	Color Color
}

// Validate checks the edit against the dimensions of g.
func (e Edit) Validate(g *Graph) error {
	switch e.Op {
	case AddEdge, RemoveEdge:
		if e.U < 0 || e.U >= g.n || e.V < 0 || e.V >= g.n {
			return fmt.Errorf("graph: edit %s(%d,%d) out of range [0,%d)", e.Op, e.U, e.V, g.n)
		}
	case AddColor, RemoveColor:
		if e.U < 0 || e.U >= g.n {
			return fmt.Errorf("graph: edit %s vertex %d out of range [0,%d)", e.Op, e.U, g.n)
		}
		if e.Color < 0 || e.Color >= g.ncol {
			return fmt.Errorf("graph: edit %s color %d out of range [0,%d)", e.Op, e.Color, g.ncol)
		}
	default:
		return fmt.Errorf("graph: unknown edit op %d", e.Op)
	}
	return nil
}

// Patch applies edits to g and returns the resulting graph, leaving g
// untouched (copy-on-write: adjacency rows of unaffected vertices are
// copied verbatim, so the cost is O(‖G‖ + Σ deg(touched))). The result is
// byte-identical to rebuilding the same edge/color sets through a Builder:
// adjacency lists stay sorted and deduplicated, so graph fingerprints and
// every downstream structure built on the patched graph agree with a
// from-scratch construction.
//
// Later edits win: an AddEdge followed by a RemoveEdge of the same pair
// nets to removal. Edits that do not change the graph (adding a present
// edge, removing an absent one, self-loops) are no-ops.
func Patch(g *Graph, edits []Edit) (*Graph, error) {
	for _, e := range edits {
		if err := e.Validate(g); err != nil {
			return nil, err
		}
	}
	// Net edge delta per ordered pair: +1 present, -1 absent, keyed u<v.
	type pair struct{ u, v int32 }
	edgeDelta := make(map[pair]bool) // value: present after the edits
	for _, e := range edits {
		switch e.Op {
		case AddEdge, RemoveEdge:
			if e.U == e.V {
				continue
			}
			u, v := int32(e.U), int32(e.V)
			if u > v {
				u, v = v, u
			}
			edgeDelta[pair{u, v}] = e.Op == AddEdge
		}
	}
	// Per-vertex sorted add/remove lists; entries that match the current
	// state (adding a present edge, removing an absent one) are dropped so
	// the row splice below stays exact.
	adds := make(map[V][]int32)
	dels := make(map[V][]int32)
	touched := make(map[V]bool)
	for p, present := range edgeDelta { //fod:sorted — fills per-vertex lists that are sorted below
		if present == g.HasEdge(int(p.u), int(p.v)) {
			continue
		}
		if present {
			adds[int(p.u)] = append(adds[int(p.u)], p.v)
			adds[int(p.v)] = append(adds[int(p.v)], p.u)
		} else {
			dels[int(p.u)] = append(dels[int(p.u)], p.v)
			dels[int(p.v)] = append(dels[int(p.v)], p.u)
		}
		touched[int(p.u)] = true
		touched[int(p.v)] = true
	}

	out := newGraph(g.n, g.ncol)
	out.off = make([]int32, g.n+1)
	grow := 0
	for v := range adds { //fod:sorted — accumulates a commutative sum
		grow += len(adds[v])
	}
	out.adj = make([]int32, 0, len(g.adj)+grow)
	for v := 0; v < g.n; v++ {
		out.off[v] = int32(len(out.adj))
		row := g.Neighbors(v)
		if !touched[v] {
			out.adj = append(out.adj, row...)
			continue
		}
		av, dv := adds[v], dels[v]
		sort.Slice(av, func(i, j int) bool { return av[i] < av[j] })
		sort.Slice(dv, func(i, j int) bool { return dv[i] < dv[j] })
		// Merge: keep row entries not in dv, interleave av in order.
		ai, di := 0, 0
		for _, w := range row {
			for ai < len(av) && av[ai] < w {
				out.adj = append(out.adj, av[ai])
				ai++
			}
			if di < len(dv) && dv[di] == w {
				di++
				continue
			}
			out.adj = append(out.adj, w)
		}
		out.adj = append(out.adj, av[ai:]...)
	}
	out.off[g.n] = int32(len(out.adj))
	out.m = len(out.adj) / 2

	out.colors = slices.Clone(g.colors)
	for _, e := range edits {
		switch e.Op {
		case AddColor:
			out.Colors(e.U).Set(e.Color)
		case RemoveColor:
			out.Colors(e.U).Clear(e.Color)
		}
	}
	return out, nil
}
