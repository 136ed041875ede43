package graph

import (
	"math"
	"slices"
)

// BFS holds reusable scratch space for truncated breadth-first searches on a
// single graph. It is not safe for concurrent use; create one per goroutine.
type BFS struct {
	g     *Graph
	dist  []int32 // -1 = unvisited in the current epoch
	epoch []int32
	cur   int32
	queue []int32
}

// NewBFS returns a BFS scratch for g.
func NewBFS(g *Graph) *BFS {
	return &BFS{
		g:     g,
		dist:  make([]int32, g.N()),
		epoch: make([]int32, g.N()),
		cur:   0,
	}
}

// Rebind points the scratch at g. A graph the arrays are long enough for —
// a later version, under Patch, of the one the scratch was made for — costs
// nothing (the epoch stamps stay valid); a larger one gets fresh arrays.
func (b *BFS) Rebind(g *Graph) {
	if g.N() > len(b.dist) {
		*b = *NewBFS(g)
		return
	}
	b.g = g
}

// bfsFree is where BorrowBFS and Release keep idle scratch. It is the
// package's and not a field of anything that has a version, and the scratch
// in it holds no graph.
var bfsFree FreeList[*BFS]

// BorrowBFS returns idle scratch bound to g, for the span of one operation:
// a write allocates no search state of its own. Release it.
func BorrowBFS(g *Graph) *BFS {
	if b, ok := bfsFree.Get(); ok {
		b.Rebind(g)
		return b
	}
	return NewBFS(g)
}

// Release makes borrowed scratch idle again, without its graph: idle
// scratch must not keep an index version alive.
func (b *BFS) Release() {
	b.g = nil
	bfsFree.Put(b, len(b.dist))
}

// ReachEither lists, ascending, the vertices within radius of srcs in gOld
// or in gNew, two versions of one graph: where a change at srcs can show at
// that range. The cost is that of the two balls, not of n.
func ReachEither(gOld, gNew *Graph, srcs []V, radius int) []V {
	var out []V
	bfs := BorrowBFS(gOld)
	for _, g := range []*Graph{gOld, gNew} {
		bfs.Rebind(g)
		for _, w := range bfs.BallMulti(srcs, radius) {
			out = append(out, int(w))
		}
	}
	bfs.Release()
	slices.Sort(out)
	return slices.Compact(out)
}

// Ball computes N_r(src): all vertices at distance ≤ r from src, in BFS
// order (hence sorted by distance, ties by discovery). The returned slice is
// valid until the next call on this BFS. Dist may be called on the returned
// vertices afterwards (before the next search).
func (b *BFS) Ball(src V, r int) []int32 {
	return b.BallMulti([]V{src}, r)
}

// BallMulti computes N_r(ā) = ∪_i N_r(a_i) for a tuple of sources.
func (b *BFS) BallMulti(srcs []V, r int) []int32 {
	if b.cur == math.MaxInt32 {
		// Borrowed scratch lives as long as the process: start the stamps over.
		clear(b.epoch)
		b.cur = 0
	}
	b.cur++
	// Work on a local slice and write it back once: appends to a plain
	// local stay on the stack-friendly growth path, and the scratch is
	// amortized across calls exactly as before.
	q := b.queue[:0]
	for _, s := range srcs {
		if b.epoch[s] == b.cur {
			continue
		}
		b.epoch[s] = b.cur
		b.dist[s] = 0
		q = append(q, int32(s))
	}
	for head := 0; head < len(q); head++ {
		v := q[head]
		d := b.dist[v]
		if int(d) >= r {
			continue
		}
		for _, w := range b.g.Neighbors(int(v)) {
			if b.epoch[w] == b.cur {
				continue
			}
			b.epoch[w] = b.cur
			b.dist[w] = d + 1
			q = append(q, w)
		}
	}
	b.queue = q
	return q
}

// AppendSortedBall appends N_r(src), ascending by vertex, to dst and returns
// the extended slice: the one way a sorted ball is made. The ball is sorted
// where it lands, so a caller that lays rows out in one arena copies each
// once; a dst without room for it is reallocated at twice its capacity or
// the size needed, whichever is more. Dist may be called on the appended
// vertices afterwards (before the next search).
func (b *BFS) AppendSortedBall(dst []int32, src V, r int) []int32 {
	ball := b.Ball(src, r)
	if need := len(dst) + len(ball); need > cap(dst) {
		dst = append(make([]int32, 0, max(need, 2*cap(dst))), dst...)
	}
	start := len(dst)
	dst = append(dst, ball...)
	sortInt32(dst[start:])
	return dst
}

// sortInt32 sorts s ascending. A ball of bounded radius on a sparse graph
// is a few dozen vertices, where insertion beats the partitioning sort.
func sortInt32(s []int32) {
	if len(s) > 128 {
		slices.Sort(s)
		return
	}
	for i := 1; i < len(s); i++ {
		x, j := s[i], i
		for ; j > 0 && s[j-1] > x; j-- {
			s[j] = s[j-1]
		}
		s[j] = x
	}
}

// Dist returns the distance from the sources of the last search to v, or -1
// if v was not reached within the radius.
func (b *BFS) Dist(v V) int {
	if b.epoch[v] != b.cur {
		return -1
	}
	return int(b.dist[v])
}

// Distance returns dist_G(u, v) truncated at max: it returns the true
// distance if it is ≤ max, and -1 otherwise. It overwrites the scratch of
// any previous search.
func (b *BFS) Distance(u, v V, max int) int {
	if u == v {
		return 0
	}
	b.Ball(u, max)
	return b.Dist(v)
}

// FarthestWithin returns a vertex of N_r(src) at maximal distance from src,
// together with that distance. It is used by center-finding heuristics.
func (b *BFS) FarthestWithin(src V, r int) (V, int) {
	ball := b.Ball(src, r)
	last := ball[len(ball)-1]
	return int(last), int(b.dist[last])
}
