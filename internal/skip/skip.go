// Package skip implements the skip pointers of Lemma 5.8: after a
// pseudo-linear preprocessing over a neighborhood cover 𝒳 with r-kernels
// and a vertex list L, queries
//
//	SKIP(b, S) = min{ b′ ∈ L : b′ ≥ b and b′ ∉ ∪_{X∈S} K_r(X) }
//
// for any set S of at most k bags are answered in constant time.
//
// Following the paper, only the pointers for the inductively defined
// families SC(b) are materialized: SC(b) starts from the singletons {X}
// with b ∈ K_r(X) and is closed under S ↦ S ∪ {X} whenever |S| < k and
// SKIP(b+1, S) ∈ K_r(X). An arbitrary query (b, S) is resolved by the
// constant-length pointer chase of Claim 5.9, which hops to the first
// element c of L at or after b and from then on reads rows of c alone —
// so rows exist for b ∈ L only; the rest of the lemma's table is never
// looked at. The rows are computed for b ∈ L from largest to smallest,
// each from the rows of the element of L after it.
package skip

import (
	"fmt"

	"repro/internal/cover"
	"repro/internal/graph"
)

// MaxSetSize is the largest supported |S| (the k of Lemma 5.8). Queries of
// arity up to MaxSetSize+1 are enough for all shipped examples and
// benchmarks; raise the array size below to extend it.
const MaxSetSize = 4

// table is one Lemma 5.8 table for a (cover, k, L) triple, immutable once
// built. In memory it has the layout of Parts: a row is k+1 words — the
// bag set S, sorted, padded to k words with -1, then SKIP(b+1, S) with -1
// for Null — and the rows of vertex b are rows[off[b]*(k+1):off[b+1]*(k+1)],
// sorted by their first k words. The families are small (≤ δ(𝒳)^k), so a
// lookup is a few comparisons.
type table struct {
	cov *cover.Cover
	k   int // maximum |S|

	nextGeqL []int32 // per vertex: min{x ∈ L : x ≥ v}, n entries; -1 = none
	off      []int32
	rows     []int32
}

// Pointers answers SKIP queries for one (cover, kernel radius, L) triple.
type Pointers struct {
	*table

	// Delta overlay (nil on a freshly built table): when a mutation patched
	// the index, the table above stays the *base* version, shared with
	// every other overlay of it, and queries are answered under
	// newCov and L′ with the correction set delta; see delta.go.
	newCov   *cover.Cover
	delta    []int32 // sorted vertices whose eligibility may differ from base
	deltaInL []bool  // per delta vertex: whether it is in L′
}

// None is returned by Query when no element qualifies.
const None = graph.V(-1)

// New computes the skip pointers. The cover must have kernels computed
// (cov.ComputeKernels); k ≤ MaxSetSize bounds the query set size; L is the
// restriction list (any order, duplicates allowed).
func New(g *graph.Graph, cov *cover.Cover, k int, L []graph.V) *Pointers {
	if k < 1 || k > MaxSetSize {
		panic(fmt.Sprintf("skip: set size %d outside [1, %d]", k, MaxSetSize))
	}
	if cov.KernelP() < 0 {
		panic("skip: cover kernels not computed")
	}
	n, w := g.N(), k+1
	t := &table{cov: cov, k: k, nextGeqL: nextGeq(n, L), off: make([]int32, n+1)}

	// Downward sweep over L. SC(b) is generated one set size at a time,
	// each size merged from its sorted runs with repeats dropped before its
	// pointers are computed, then the sizes merged into the order of the
	// rows and written below the rows of the previous vertex: the arena
	// fills from its end, so the finished table is its tail.
	arena := make([]int32, 4*w*len(L))
	pos := len(arena)
	next := int32(-1)              // the element of L after b
	var prev []int32               // its rows
	var fam, level, spare []member // SC(b); its sets of one size; scratch
	var sizes, runs []int          // where each size in fam, each run in level starts
	// mark[x] is the row of {x} among prev when next ∈ K(x), else -1: it
	// answers kernelAround(next, ·) and the first lookup of the chase.
	mark := make([]int32, cov.NumBags())
	for i := range mark {
		mark[i] = -1
	}
	for b := n - 1; b >= 0; b-- {
		if t.nextGeqL[b] != int32(b) {
			continue
		}
		fam, sizes, level = fam[:0], sizes[:0], level[:0]
		for _, x := range cov.KernelsOf(b) {
			level = append(level, member{s: [MaxSetSize]int32{x, -1, -1, -1}})
		}
		for sl := 1; len(level) > 0; sl++ {
			lo := len(fam)
			fam, sizes, runs = append(fam, level...), append(sizes, lo), runs[:0]
			level = level[:0]
			for i := lo; i < len(fam); i++ {
				// Every S ∈ SC(b) holds a kernel around b, so SKIP(b, S) is
				// SKIP(b+1, S), which the rows of next resolve.
				s, v := fam[i].s, next
				for _, x := range s[:sl] {
					if at := mark[x]; at >= 0 {
						v = int32(t.chase(prev, x, int(at), s[:sl]))
						break
					}
				}
				fam[i].v = v
				if v < 0 || sl == k {
					continue
				}
				// Adding the bags in ascending order gives the larger sets in
				// ascending order: one sorted run.
				runs = append(runs, len(level))
				for _, y := range cov.KernelsOf(int(v)) {
					if ns, ok := setAdd(s, sl, y); ok {
						level = append(level, member{s: ns})
					}
				}
			}
			level, spare = mergeRuns(level, runs, spare)
		}
		fam, spare = mergeRuns(fam, sizes, spare)
		if len(fam)*w > pos {
			grown := make([]int32, 2*len(arena)+len(fam)*w)
			pos = len(grown) - copy(grown[len(grown)-(len(arena)-pos):], arena[pos:])
			arena = grown
		}
		pos -= len(fam) * w
		prev = arena[pos : pos+len(fam)*w]
		if next >= 0 {
			for _, x := range cov.KernelsOf(int(next)) {
				mark[x] = -1
			}
		}
		for i, m := range fam {
			copy(prev[i*w:], m.s[:k])
			prev[i*w+k] = m.v
			if m.s[1] < 0 {
				mark[m.s[0]] = int32(i)
			}
		}
		next = int32(b)
		t.off[b+1] = int32(len(fam))
	}
	for b := 0; b < n; b++ {
		t.off[b+1] += t.off[b]
	}
	t.rows = arena[pos:]
	if pos > 0 { // let go of the unused head
		t.rows = make([]int32, len(arena)-pos)
		copy(t.rows, arena[pos:])
	}
	return &Pointers{table: t}
}

// nextGeq returns, per vertex v of [0,n), the first element of L at or
// after v, or -1.
func nextGeq(n int, L []graph.V) []int32 {
	out := make([]int32, n)
	for i := range out {
		out[i] = -1
	}
	for _, v := range L {
		out[v] = int32(v)
	}
	next := int32(-1)
	for v := n - 1; v >= 0; v-- {
		if out[v] >= 0 {
			next = out[v]
		}
		out[v] = next
	}
	return out
}

// member is one set of a family SC(b) while New assembles it: the set,
// sorted and padded with -1, and SKIP(b+1, set).
type member struct {
	s [MaxSetSize]int32
	v int32
}

// mergeRuns sorts ms, made of the sorted runs that start at runs[0] = 0 <
// runs[1] < …, by merging neighbouring runs until one is left, and drops
// repeated sets; runs is overwritten. It returns the result, and the other
// of ms and spare as the next scratch.
func mergeRuns(ms []member, runs []int, spare []member) ([]member, []member) {
	for len(runs) > 1 {
		runs = append(runs, len(ms)) // where the last run ends
		out, next := spare[:0], runs[:0]
		for i := 0; i+1 < len(runs); i += 2 {
			a, b := ms[runs[i]:runs[i+1]], ms[runs[i+1]:runs[min(i+2, len(runs)-1)]]
			next = append(next, len(out))
			for len(a) > 0 && len(b) > 0 {
				switch c := cmpSets(a[0].s[:], b[0].s[:]); {
				case c < 0:
					out, a = append(out, a[0]), a[1:]
				case c > 0:
					out, b = append(out, b[0]), b[1:]
				default:
					out, a, b = append(out, a[0]), a[1:], b[1:]
				}
			}
			out = append(append(out, a...), b...)
		}
		ms, spare, runs = out, ms, next
	}
	return ms, spare
}

// cmpSets orders padded sorted sets of equal length lexicographically; the
// -1 padding puts a set before its extensions.
//
//fod:hotpath
func cmpSets(a, b []int32) int {
	for i, x := range a {
		if x != b[i] {
			if x < b[i] {
				return -1
			}
			return 1
		}
	}
	return 0
}

// lookup returns the row of the set s among the rows es of one vertex, or
// -1; it exists whenever s ∈ SC of that vertex.
//
//fod:hotpath
func (t *table) lookup(es []int32, s *[MaxSetSize]int32) int {
	w := t.k + 1
	lo, hi := 0, len(es)/w
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		row := es[mid*w : mid*w+w]
		switch c := cmpSets(row[:t.k], s[:t.k]); {
		case c == 0:
			return mid
		case c < 0:
			lo = mid + 1
		default:
			hi = mid
		}
	}
	return -1
}

// Size returns the number of materialized pointers (the Σ_{b∈L} |SC(b)|
// of Claim 5.10).
func (p *Pointers) Size() int { return len(p.rows) / (p.k + 1) }

// Largest returns the size of the largest family SC(b): the δ(𝒳)^k that
// bounds a family in Claim 5.10.
func (p *Pointers) Largest() int {
	m := int32(0)
	for b := 1; b < len(p.off); b++ {
		m = max(m, p.off[b]-p.off[b-1])
	}
	return int(m)
}

// K returns the largest |S| the table answers: the k it was built with.
func (p *Pointers) K() int { return p.k }

// SharesTable reports whether p and q answer from the same table: one is
// the other, or both are delta overlays of one base.
func (p *Pointers) SharesTable(q *Pointers) bool { return p.table == q.table }

// Query returns SKIP(b, S) in constant time, or None. S may be in any
// order and must contain at most k bag indices. It is called per
// candidate inside the answering loop, so the sorted copy of S lives in a
// fixed-size stack array (insertion sort over ≤ MaxSetSize elements)
// rather than an allocated slice.
//
//fod:hotpath
func (p *Pointers) Query(b graph.V, S []int) graph.V {
	if len(S) > p.k {
		panic("skip: query set size exceeds the preprocessed k")
	}
	var bags [MaxSetSize]int32
	for n, x := range S {
		i := n
		for i > 0 && bags[i-1] > int32(x) {
			bags[i] = bags[i-1]
			i--
		}
		bags[i] = int32(x)
	}
	if p.delta != nil {
		return p.queryDelta(b, bags[:len(S)])
	}
	return p.resolve(b, bags[:len(S)])
}

// resolve answers SKIP(b, S) from the finished table: hop to the first
// element c of L at or after b; it is the answer unless a kernel of S
// holds it, and then the rows of c lead to the answer.
//
//fod:hotpath
func (t *table) resolve(b graph.V, S []int32) graph.V {
	if b >= len(t.nextGeqL) {
		return None
	}
	c := t.nextGeqL[b]
	if c < 0 {
		return None
	}
	x := t.kernelAround(c, S)
	if x < 0 {
		return int(c)
	}
	w := t.k + 1
	return t.chase(t.rows[int(t.off[c])*w:int(t.off[c+1])*w], x, -1, S)
}

// kernelAround returns a bag of S whose kernel contains c, or -1.
//
//fod:hotpath
func (t *table) kernelAround(c int32, S []int32) int32 {
	for _, x := range S {
		if t.cov.InKernel(int(x), int(c)) {
			return x
		}
	}
	return -1
}

// chase implements Claim 5.9 for an element c of L with rows es and a bag
// x ∈ S whose kernel contains c: it returns SKIP(c, S), reading es and
// nothing else of the table. It starts from S′ = {x} ∈ SC(c), whose row is
// at (-1: to be found), and follows the stored pointers, growing S′
// maximally (each growth step is justified by the SC closure rule).
//
//fod:hotpath
func (t *table) chase(es []int32, x int32, at int, S []int32) graph.V {
	sp := [MaxSetSize]int32{x, -1, -1, -1}
	for sl := 1; ; at = -1 {
		if at < 0 {
			if at = t.lookup(es, &sp); at < 0 {
				panic("skip: missing pointer in the SC table")
			}
		}
		v := es[at*(t.k+1)+t.k]
		if v < 0 {
			return None
		}
		grown := false
		if sl < len(S) {
			for _, y := range S {
				if t.cov.InKernel(int(y), int(v)) {
					if ns, ok := setAdd(sp, sl, y); ok {
						sp, grown = ns, true
						sl++
						break
					}
				}
			}
		}
		if !grown {
			return int(v)
		}
	}
}

// setAdd inserts y into the set of the first n words of s, keeping them
// sorted; ok=false if it is full or y is already present.
//
//fod:hotpath
func setAdd(s [MaxSetSize]int32, n int, y int32) ([MaxSetSize]int32, bool) {
	if n == MaxSetSize {
		return s, false
	}
	i := n
	for i > 0 && s[i-1] >= y {
		if s[i-1] == y {
			return s, false
		}
		i--
	}
	copy(s[i+1:n+1], s[i:n])
	s[i] = y
	return s, true
}
