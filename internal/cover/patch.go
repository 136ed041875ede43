// Cover patching: derive the (R, 2R)-cover of an edited graph from the
// existing one, recomputing only the bags an edit can reach.
//
// The enumeration machinery needs exactly two properties from a cover
// (see DESIGN.md §3.3):
//
//  1. containment — ∀a: N_R(a) ⊆ bag(𝒳(a)). Edge removals only shrink
//     balls, so they preserve it; an added edge can grow N_R(a) past the
//     assigned bag for vertices a near the new edge, and those vertices
//     get a fresh bag N_{2R}(a) (trivially containing N_R(a)).
//  2. exact kernels — K_p(X) must be the true p-kernel of X in the
//     *current* graph, because the skip pointers of Lemma 5.8 treat
//     "outside every kernel of S" as a proof of distance > p without
//     re-checking. Both additions and removals move kernel boundaries
//     (removals grow kernels), so every bag containing a vertex whose
//     p-ball changed gets its kernel recomputed exactly.
//
// The patched cover is valid but not necessarily the greedy-canonical
// cover a from-scratch build would produce; that is fine — covers steer
// the search, they never appear in answers, so enumeration over a patched
// cover is byte-identical to enumeration over a rebuilt one (the
// differential tests in internal/core enforce this).
package cover

import (
	"sort"

	"repro/internal/graph"
)

// PatchInfo reports what a Patch changed, for the layers above (skip
// pointers, starter kernel lists) to localize their own recomputation.
type PatchInfo struct {
	// NewBags are the bag ids created for containment repairs; they form
	// the contiguous range [old NumBags, new NumBags).
	NewBags []int
	// KernelChanged are the ids of preexisting bags whose kernel set
	// changed.
	KernelChanged []int
	// KernelDelta are the vertices whose kernel membership changed in any
	// bag — including every kernel member of a new bag — sorted ascending.
	// A vertex outside this set is in exactly the same kernels as before,
	// which is what makes the skip-pointer delta overlay exact.
	KernelDelta []graph.V
}

// maxPatchFraction bounds the locality of a patch: if more than n/8
// vertices have a changed p-ball the edit is not local and a rebuild is
// at least as cheap as patching.
const maxPatchFraction = 8

// Patch derives the cover of gNew (the graph after a batch of edits) from
// c (built on gOld). sources are the edge-edit endpoints; color edits do
// not influence a cover and must not be passed. ok=false means the edit
// batch is not local enough to patch and the caller should rebuild.
//
// The returned cover shares every untouched slice with c (copy-on-write:
// O(n) for the array spines plus work proportional to the affected
// region), so c remains fully usable — in-flight readers of the old
// version keep their exact structure.
func (c *Cover) Patch(gOld, gNew *graph.Graph, sources []graph.V) (*Cover, *PatchInfo, bool) {
	if gNew.N() != c.g.N() || c.kernelP < 0 {
		return nil, nil, false
	}
	n := gNew.N()
	out := &Cover{
		g: gNew, R: c.R, S: c.S,
		bags:     c.bags,
		centers:  c.centers,
		assign:   c.assign,
		memberOf: c.memberOf,
		kernelP:  c.kernelP,
		kernels:  c.kernels,
		kernelOf: c.kernelOf,
		pool:     c.pool,
		stats:    c.stats,
	}
	info := &PatchInfo{}
	if len(sources) == 0 {
		// Color-only batch: the cover is a pure metric object; share it all.
		return out, info, true
	}

	// Vertices whose p-ball (p = kernelP) may have changed: within p of a
	// source in the old or the new graph.
	affected := make([]bool, n)
	var affList []graph.V
	markBalls := func(g *graph.Graph, r int, dst []bool, lst *[]graph.V) {
		bfs := graph.NewBFS(g)
		for _, w := range bfs.BallMulti(sources, r) {
			if !dst[w] {
				dst[w] = true
				if lst != nil {
					*lst = append(*lst, int(w))
				}
			}
		}
	}
	markBalls(gOld, c.kernelP, affected, &affList)
	markBalls(gNew, c.kernelP, affected, &affList)
	if len(affList) > n/maxPatchFraction {
		return nil, nil, false
	}
	sort.Ints(affList)

	// --- containment repair (edge additions can violate it) -------------
	// Candidates: vertices within R of a source in gNew (only their R-ball
	// can have grown).
	candidate := make([]bool, n)
	var candList []graph.V
	markBalls(gNew, c.R, candidate, &candList)
	if len(candList) > n/maxPatchFraction {
		return nil, nil, false
	}
	sort.Ints(candList)
	bfsNew := graph.NewBFS(gNew)
	var violated []graph.V
	for _, a := range candList {
		bag := c.bags[c.assign[a]]
		ok := true
		for _, w := range bfsNew.Ball(a, c.R) {
			if !containsSorted(bag, int(w)) {
				ok = false
				break
			}
		}
		if !ok {
			violated = append(violated, a)
		}
	}

	kernelDelta := make(map[graph.V]bool)
	if len(violated) > 0 {
		out.bags = c.bags[:len(c.bags):len(c.bags)] // full-cap: appends below reallocate
		out.centers = c.centers[:len(c.centers):len(c.centers)]
		out.assign = append([]int32(nil), c.assign...)
		out.memberOf = cloneSpine(c.memberOf)
		out.kernels = c.kernels[:len(c.kernels):len(c.kernels)]
		out.kernelOf = cloneSpine(c.kernelOf)
		sc := newKernelScratch(n)
		repaired := make([]bool, len(violated))
		for i, a := range violated {
			if repaired[i] {
				continue
			}
			// New bag N_{2R}(a): contains N_R(a), so assigning a (and any
			// other violated vertex whose R-ball it swallows) restores
			// containment.
			ball := bfsNew.Ball(a, c.S)
			bag := make([]graph.V, len(ball))
			for j, w := range ball {
				bag[j] = int(w)
			}
			sort.Ints(bag)
			id := int32(len(out.bags))
			out.bags = append(out.bags, bag)
			out.centers = append(out.centers, a)
			out.assign[a] = id
			info.NewBags = append(info.NewBags, int(id))
			for _, v := range bag {
				out.memberOf[v] = appendSortedID(out.memberOf[v], id)
			}
			kern := bagKernelOn(gNew, sc, bag, c.kernelP)
			out.kernels = append(out.kernels, kern)
			for _, v := range kern {
				out.kernelOf[v] = appendSortedID(out.kernelOf[v], id)
				kernelDelta[v] = true
			}
			for j := i + 1; j < len(violated); j++ {
				if repaired[j] {
					continue
				}
				b := violated[j]
				inside := true
				for _, w := range bfsNew.Ball(b, c.R) {
					if !containsSorted(bag, int(w)) {
						inside = false
						break
					}
				}
				if inside {
					out.assign[b] = id
					repaired[j] = true
				}
			}
		}
	}

	// --- exact kernel recomputation for touched preexisting bags ---------
	// A bag's kernel can change only through vertices whose p-ball changed;
	// collect the bags containing any of them.
	redo := make(map[int]bool)
	for _, v := range affList {
		for _, b := range c.memberOf[v] {
			redo[int(b)] = true
		}
	}
	redoList := make([]int, 0, len(redo))
	for b := range redo { //fod:sorted — sorted immediately below
		redoList = append(redoList, b)
	}
	sort.Ints(redoList)
	if len(redoList) > 0 {
		sc := newKernelScratch(n)
		var kernCow, kernOfCow bool
		for _, b := range redoList {
			oldKern := c.kernels[b]
			newKern := bagKernelOn(gNew, sc, c.bags[b], c.kernelP)
			added, removed := diffSorted(oldKern, newKern)
			if len(added) == 0 && len(removed) == 0 {
				continue
			}
			if !kernCow {
				if sameSpineV(out.kernels, c.kernels) { // not already copied by the repair above
					out.kernels = append([][]graph.V(nil), c.kernels...)
				}
				kernCow = true
			}
			out.kernels[b] = newKern
			if !kernOfCow {
				if sameSpine(out.kernelOf, c.kernelOf) {
					out.kernelOf = cloneSpine(c.kernelOf)
				}
				kernOfCow = true
			}
			for _, v := range added {
				out.kernelOf[v] = appendSortedID(out.kernelOf[v], int32(b))
				kernelDelta[v] = true
			}
			for _, v := range removed {
				out.kernelOf[v] = removeSortedID(out.kernelOf[v], int32(b))
				kernelDelta[v] = true
			}
			info.KernelChanged = append(info.KernelChanged, b)
		}
	}

	info.KernelDelta = make([]graph.V, 0, len(kernelDelta))
	for v := range kernelDelta { //fod:sorted — sorted immediately below
		info.KernelDelta = append(info.KernelDelta, v)
	}
	sort.Ints(info.KernelDelta)

	return out, info, true
}

// bagKernelOn is bagKernel against an explicit graph (the patch target),
// mirroring the Lemma 5.7 boundary BFS of the builder.
func bagKernelOn(g *graph.Graph, sc *kernelScratch, bag []graph.V, p int) []graph.V {
	sc.ep++
	ep := sc.ep
	for _, v := range bag {
		sc.mark[v] = ep
	}
	sc.queue = sc.queue[:0]
	for _, v := range bag {
		for _, w := range g.Neighbors(v) {
			if sc.mark[w] != ep && sc.mark[w] != -ep {
				sc.queue = append(sc.queue, v)
				sc.depth[v] = 1
				break
			}
		}
	}
	for _, v := range sc.queue {
		sc.mark[v] = -ep
	}
	for head := 0; head < len(sc.queue); head++ {
		v := sc.queue[head]
		if int(sc.depth[v]) >= p {
			continue
		}
		for _, w := range g.Neighbors(v) {
			if sc.mark[w] == ep {
				sc.mark[w] = -ep
				sc.depth[w] = sc.depth[v] + 1
				sc.queue = append(sc.queue, int(w))
			}
		}
	}
	var kern []graph.V
	for _, v := range bag {
		if sc.mark[v] == ep {
			kern = append(kern, v)
		}
	}
	return kern
}

// cloneSpine copies the outer slice of a list-of-lists; the rows stay
// shared until individually replaced.
func cloneSpine(xs [][]int32) [][]int32 {
	out := make([][]int32, len(xs))
	copy(out, xs)
	return out
}

func sameSpine(a, b [][]int32) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

func sameSpineV(a, b [][]graph.V) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// appendSortedID inserts id into a fresh copy of the sorted list.
func appendSortedID(xs []int32, id int32) []int32 {
	i := sort.Search(len(xs), func(i int) bool { return xs[i] >= id })
	if i < len(xs) && xs[i] == id {
		return xs
	}
	out := make([]int32, 0, len(xs)+1)
	out = append(out, xs[:i]...)
	out = append(out, id)
	out = append(out, xs[i:]...)
	return out
}

// removeSortedID removes id from a fresh copy of the sorted list.
func removeSortedID(xs []int32, id int32) []int32 {
	i := sort.Search(len(xs), func(i int) bool { return xs[i] >= id })
	if i == len(xs) || xs[i] != id {
		return xs
	}
	out := make([]int32, 0, len(xs)-1)
	out = append(out, xs[:i]...)
	out = append(out, xs[i+1:]...)
	return out
}

// diffSorted returns the elements only in b (added) and only in a
// (removed), for sorted inputs.
func diffSorted(a, b []graph.V) (added, removed []graph.V) {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			i++
			j++
		case a[i] < b[j]:
			removed = append(removed, a[i])
			i++
		default:
			added = append(added, b[j])
			j++
		}
	}
	removed = append(removed, a[i:]...)
	added = append(added, b[j:]...)
	return added, removed
}
