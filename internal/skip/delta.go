// Delta overlays: answering SKIP queries for a *mutated* index without
// rebuilding the SC pointer tables.
//
// After a batch of edits the eligibility predicate behind SKIP,
//
//	elig(v, S) = v ∈ L′ and v ∉ ∪_{X∈S} K′_r(X),
//
// changes only at vertices whose ingredients changed: the starter-list
// diff L △ L′, the vertices whose kernel membership changed in any bag
// (cover.PatchInfo.KernelDelta), and every kernel member of a bag created
// by the patch. Call that sorted set the delta D. For v ∉ D the old and
// new predicates agree — for every bag of S: preexisting bags keep v's
// membership, and for bag ids created by the patch the base cover's
// InKernel scans v's (old) kernel list and correctly reports
// false, which matches v ∉ K′ since all members of new-bag kernels are
// in D.
//
// A query therefore splits exactly:
//
//	SKIP′(b, S) = min( chase(b, S) skipping results in D,  first d ∈ D,
//	                   d ≥ b, with elig′(d, S) )
//
// The first candidate comes from the *old* pointer tables (Claim 5.9
// chases, each hop constant time, at most |D|+1 of them); the second from
// a linear scan of D cut off at the first candidate. Both sides are
// allocation-free, so the answering loop keeps its zero-allocation
// guarantee; the extra cost is O(|D|) in the worst case — the mutation
// regime of the Storing Theorem §3, not the enumeration regime — and the
// engine rebuilds the tables outright once D outgrows RebuildThreshold.
package skip

import (
	"slices"

	"repro/internal/cover"
	"repro/internal/graph"
)

// RebuildThreshold is the delta size (relative to n) beyond which chained
// overlays stop paying: callers should fall back to New. Kept here so the
// policy has one home.
func RebuildThreshold(n int) int {
	t := n / 16
	if t < 32 {
		t = 32
	}
	return t
}

// WithDelta returns skip pointers for the mutated index: the receiver's
// table remains the base, read and never written (it keeps serving the
// receiver's version, and any other overlay of it, unchanged), while
// queries against the result are answered under the new cover newCov and
// new restriction list newL, sorted, exact for every (b, S). The overlay
// keeps L′-membership of the delta's vertices only: its size and the cost
// of making it are the accumulated delta's, not n, and only the new
// delta's vertices are searched in newL.
//
// delta must contain every vertex whose eligibility ingredients changed,
// sorted ascending: the L-diff, KernelDelta of the cover patch, and the
// kernel members of bags the patch created. Chaining WithDelta on an
// already-overlaid Pointers accumulates: the base stays the original
// table and the deltas union (a vertex whose eligibility changed
// base→v1 or v1→v2 is in one of them).
func (p *Pointers) WithDelta(newCov *cover.Cover, newL []graph.V, delta []graph.V) *Pointers {
	out := &Pointers{
		table:    p.table,
		newCov:   newCov,
		delta:    make([]int32, 0, len(p.delta)+len(delta)),
		deltaInL: make([]bool, 0, len(p.delta)+len(delta)),
	}
	// The union of the accumulated delta and the new one. L′-membership is
	// asked of delta vertices only: a vertex of the new delta is searched in
	// newL, which is sorted; one of the accumulated delta alone did not
	// change sides (the L-diff is in the new delta) and keeps its bit.
	i, from := 0, 0
	for _, v := range delta {
		for ; i < len(p.delta) && p.delta[i] < int32(v); i++ {
			out.delta, out.deltaInL = append(out.delta, p.delta[i]), append(out.deltaInL, p.deltaInL[i])
		}
		if i < len(p.delta) && p.delta[i] == int32(v) {
			i++
		}
		at, in := slices.BinarySearch(newL[from:], v)
		from += at
		out.delta, out.deltaInL = append(out.delta, int32(v)), append(out.deltaInL, in)
	}
	out.delta = append(out.delta, p.delta[i:]...)
	out.deltaInL = append(out.deltaInL, p.deltaInL[i:]...)
	return out
}

// DeltaLen returns the size of the accumulated delta (0 for a base table),
// the quantity callers compare against RebuildThreshold.
func (p *Pointers) DeltaLen() int { return len(p.delta) }

// deltaGeq returns the index of the first element of D at or after v
// (len(D) if there is none), by binary search.
//
//fod:hotpath
func (p *Pointers) deltaGeq(v graph.V) int {
	d := p.delta
	lo, hi := 0, len(d)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if d[mid] < int32(v) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// inDelta reports v ∈ D.
//
//fod:hotpath
func (p *Pointers) inDelta(v graph.V) bool {
	i := p.deltaGeq(v)
	return i < len(p.delta) && p.delta[i] == int32(v)
}

//fod:hotpath
func (p *Pointers) inKernelsNew(v graph.V, S []int32) bool {
	for _, x := range S {
		if p.newCov.InKernel(int(x), v) {
			return true
		}
	}
	return false
}

// queryDelta answers SKIP′(b, S) under the overlay; see the package
// comment of this file for the exactness argument.
//
//fod:hotpath
func (p *Pointers) queryDelta(b graph.V, S []int32) graph.V {
	// Candidate 1: the base chase, filtered — any result inside D has
	// unknown new-eligibility, so hop past it; the first result outside D
	// is new-eligible by the agreement argument.
	v := p.resolve(b, S)
	for v != None && p.inDelta(v) {
		v = p.resolve(v+1, S)
	}
	// Candidate 2: the first new-eligible delta vertex in [b, v).
	d := p.delta
	for i := p.deltaGeq(b); i < len(d); i++ {
		w := graph.V(d[i])
		if v != None && w >= v {
			break
		}
		if p.deltaInL[i] && !p.inKernelsNew(w, S) {
			return w
		}
	}
	return v
}
