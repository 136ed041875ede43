package dist

import (
	"fmt"

	"repro/internal/cover"
	"repro/internal/graph"
)

// Node kinds of the serialized recursion tree (NodeParts.Kind).
const (
	NodeEdgeless  = 1 // λ=1 base case: dist(a,b) ≤ r iff a = b
	NodeSmall     = 2 // truncated ball-list table (CSR)
	NodeFallback  = 3 // on-demand truncated BFS
	NodeRecursive = 4 // cover + per-bag splitter data + child per bag
)

// maxSnapshotDepth bounds the accepted recursion depth. Builds never
// exceed Options.MaxDepth (default 24); the cap protects the restorer
// from stack exhaustion on corrupted snapshots.
const maxSnapshotDepth = 64

// NodeParts is one arena of the serialized Proposition 4.2 recursion.
// Small nodes carry their truncated distance table verbatim; recursive
// nodes carry the level's cover, the per-bag splitter vertex and Step-4
// distance column, and one child per bag. The arena graphs themselves are
// NOT serialized: each level's G[X] and X′ = G[X \ {s_X}] are
// reconstructed by the same graph.Induce and graph.RemoveVertex calls the
// builder ran, which are deterministic and skip every BFS the build paid for.
type NodeParts struct {
	Kind int

	// NodeSmall:
	SmallOff  []int32
	SmallBall []int32
	SmallD    []int8

	// NodeRecursive:
	Cover cover.Parts
	Bags  []BagParts
}

// BagParts is the per-bag payload of a recursive node.
type BagParts struct {
	SX    int32   // splitter vertex, local to the bag's induced subgraph
	DistS []int32 // dist_{G[X]}(v, s_X) truncated at R+1, local
	Inner *NodeParts
}

// Parts is the serialized form of a distance index: the radius, the
// structural counters (so Stats/Explain survive a round trip), and the
// recursion tree.
type Parts struct {
	R    int
	Root *NodeParts

	Bags, MaxDepth, SmallLeaves, Fallbacks, TableCells, Work int
}

// Parts returns the serialized form of the index.
func (ix *Index) Parts() Parts {
	st := ix.Stats()
	return Parts{
		R: ix.R, Root: nodeParts(ix),
		Bags: st.Bags, MaxDepth: st.MaxDepth, SmallLeaves: st.SmallLeaves,
		Fallbacks: st.Fallbacks, TableCells: st.TableCells, Work: st.Work,
	}
}

func nodeParts(ix *Index) *NodeParts {
	switch {
	case ix.edgeless:
		return &NodeParts{Kind: NodeEdgeless}
	case ix.small != nil:
		np := &NodeParts{Kind: NodeSmall}
		np.SmallOff, np.SmallBall = ix.small.ball.Flat()
		_, np.SmallD = ix.small.d.Flat()
		return np
	case ix.fallback != nil:
		return &NodeParts{Kind: NodeFallback}
	}
	np := &NodeParts{Kind: NodeRecursive, Cover: ix.cov.Parts(), Bags: make([]BagParts, len(ix.bags))}
	for i, b := range ix.bags {
		np.Bags[i] = BagParts{SX: int32(b.sX), DistS: b.distS, Inner: nodeParts(b.inner)}
	}
	return np
}

// FromParts reconstructs the index for g. Covers, splitter vertices and
// distance columns come from the snapshot; the arena subgraphs are
// re-induced (pure renumbering, no BFS), so the restored index is
// structurally identical to the built one.
func FromParts(g *graph.Graph, p Parts) (*Index, error) {
	if p.R < 1 {
		return nil, fmt.Errorf("dist: snapshot radius %d < 1", p.R)
	}
	stats := &Stats{
		Bags: p.Bags, MaxDepth: p.MaxDepth, SmallLeaves: p.SmallLeaves,
		Fallbacks: p.Fallbacks, TableCells: p.TableCells, Work: p.Work,
	}
	return fromNode(g, p.R, p.Root, stats, 0)
}

func fromNode(g *graph.Graph, r int, np *NodeParts, stats *Stats, depth int) (*Index, error) {
	if np == nil {
		return nil, fmt.Errorf("dist: missing recursion node at depth %d", depth)
	}
	if depth > maxSnapshotDepth {
		return nil, fmt.Errorf("dist: recursion deeper than %d", maxSnapshotDepth)
	}
	ix := &Index{g: g, R: r, stats: stats}
	switch np.Kind {
	case NodeEdgeless:
		ix.edgeless = true
	case NodeSmall:
		t, err := smallFromParts(np, g.N())
		if err != nil {
			return nil, err
		}
		ix.small = t
	case NodeFallback:
		ix.fallback = newBFSPool(g)
	case NodeRecursive:
		cov, err := cover.FromParts(g, np.Cover)
		if err != nil {
			return nil, err
		}
		if cov.R != r {
			return nil, fmt.Errorf("dist: level cover has radius %d, index has %d", cov.R, r)
		}
		if len(np.Bags) != cov.NumBags() {
			return nil, fmt.Errorf("dist: %d bag payloads for %d bags", len(np.Bags), cov.NumBags())
		}
		ix.cov = cov
		ix.bags = make([]*bagIndex, len(np.Bags))
		for i := range np.Bags {
			bp := &np.Bags[i]
			sub := induceBag(g, cov.Bag(i))
			if int(bp.SX) < 0 || int(bp.SX) >= sub.G.N() {
				return nil, fmt.Errorf("dist: splitter %d of bag %d outside its %d-vertex arena", bp.SX, i, sub.G.N())
			}
			if len(bp.DistS) != sub.G.N() {
				return nil, fmt.Errorf("dist: bag %d distance column has %d entries for %d vertices", i, len(bp.DistS), sub.G.N())
			}
			b := &bagIndex{sub: sub, sX: int(bp.SX), distS: bp.DistS}
			b.prime = graph.RemoveVertex(sub.G, b.sX)
			inner, err := fromNode(b.prime.G, r, bp.Inner, stats, depth+1)
			if err != nil {
				return nil, err
			}
			b.inner = inner
			ix.bags[i] = b
		}
	default:
		return nil, fmt.Errorf("dist: unknown recursion node kind %d", np.Kind)
	}
	return ix, nil
}

func smallFromParts(np *NodeParts, n int) (*smallTable, error) {
	t := &tableCSR{off: np.SmallOff, ball: np.SmallBall, d: np.SmallD}
	if len(t.off) != n+1 || (n >= 0 && (len(t.off) == 0 || t.off[0] != 0)) {
		return nil, fmt.Errorf("dist: ball table has %d offsets for %d vertices", len(t.off), n)
	}
	if int(t.off[n]) != len(t.ball) || len(t.d) != len(t.ball) {
		return nil, fmt.Errorf("dist: ball table columns disagree (%d offsets end, %d ids, %d distances)",
			t.off[n], len(t.ball), len(t.d))
	}
	for i := 0; i < n; i++ {
		if t.off[i] > t.off[i+1] || int(t.off[i+1]) > len(t.ball) {
			return nil, fmt.Errorf("dist: ball table offsets of vertex %d out of order", i)
		}
		prev := int32(-1)
		for _, w := range t.ball[t.off[i]:t.off[i+1]] {
			if w <= prev || int(w) >= n {
				return nil, fmt.Errorf("dist: ball list of vertex %d not a sorted vertex list", i)
			}
			prev = w
		}
	}
	return t.table(), nil
}
