package graph

import (
	"cmp"
	"fmt"
	"slices"
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
// untouched. The cost is that of the rows and pages an edit touches: the
// adjacency rows are a Rows and the color matrix a Paged, so the result
// shares every block of rows without an edited endpoint and every page of
// colors without an edited vertex, carries the edge count over from g, and
// the maximum degree too unless the last vertex of that degree lost an edge
// (MaxDegree counts it then, when asked). Through Parts the result is
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
	out := &Graph{n: g.n, m: g.m, rows: g.rows, ncol: g.ncol, colors: g.colors, wpc: g.wpc, stride: g.stride}
	d, at, counted := g.degreeCount()
	if arcs := netArcs(g, edits); len(arcs) > 0 {
		// One row per distinct tail: the old row with the tail's arcs merged
		// in or taken out.
		var vs []V
		out.rows, vs = Toggle(&g.rows, arcs)
		out.m = out.rows.Cells() / 2
		count := func(deg, by int) {
			switch {
			case deg > d:
				d, at = deg, by
			case deg == d:
				at += by
			}
		}
		for _, v := range vs {
			count(g.Degree(v), -1)
		}
		for _, v := range vs {
			count(out.Degree(v), 1)
		}
		counted = counted && at > 0
	}
	if counted {
		out.setDegreeCount(d, at)
	}
	colors := g.colors.Edit()
	for _, e := range edits {
		switch e.Op {
		case AddColor:
			Bitset(colors.Run(e.U*g.stride, g.wpc)).Set(e.Color)
		case RemoveColor:
			Bitset(colors.Run(e.U*g.stride, g.wpc)).Clear(e.Color)
		}
	}
	out.colors = colors.Paged()
	return out, nil
}

// netArcs returns both directions of every edge whose presence the edits
// change, as cells of the adjacency rows: the last edit of a pair decides,
// and one that asks for the state g is in already changes nothing.
func netArcs(g *Graph, edits []Edit) []Cell {
	type change struct {
		u, v V // u < v
		add  bool
	}
	var cs []change
	for _, e := range edits {
		if (e.Op == AddEdge || e.Op == RemoveEdge) && e.U != e.V {
			cs = append(cs, change{min(e.U, e.V), max(e.U, e.V), e.Op == AddEdge})
		}
	}
	slices.SortStableFunc(cs, func(a, b change) int {
		if a.u != b.u {
			return cmp.Compare(a.u, b.u)
		}
		return cmp.Compare(a.v, b.v)
	})
	var arcs []Cell
	for i, c := range cs {
		if i+1 < len(cs) && cs[i+1].u == c.u && cs[i+1].v == c.v {
			continue // a later edit of the same pair wins
		}
		if c.add != g.HasEdge(c.u, c.v) {
			arcs = append(arcs, Cell{c.u, int32(c.v)}, Cell{c.v, int32(c.u)})
		}
	}
	return arcs
}
