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
	"slices"

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
// The returned cover shares with c every bag and kernel row it did not
// replace — a row is replaced or appended, never written in place — every
// page of the row spines, centers and assignment without a replaced or
// appended entry (graph.Paged), and every block of the inverted lists
// without a vertex of a new or re-kerneled bag (graph.Rows.Patch), so the
// work is proportional to the affected region and c remains fully usable —
// in-flight readers of the old version keep their exact structure.
// memberOf is one such list: when c has none (it was built or restored) an
// edge edit derives it from the bags, and the result carries it, so a
// stream of writes pays that transposition once.
func (c *Cover) Patch(gOld, gNew *graph.Graph, sources []graph.V) (*Cover, *PatchInfo, bool) {
	if gNew.N() != c.g.N() || c.kernelP < 0 {
		return nil, nil, false
	}
	n := gNew.N()
	out := *c
	out.g = gNew
	info := &PatchInfo{}
	if len(sources) == 0 {
		// Color-only batch: the cover is a pure metric object; share it all.
		return &out, info, true
	}

	// Vertices whose p-ball (p = kernelP) may have changed: within p of a
	// source in the old or the new graph.
	affected := graph.ReachEither(gOld, gNew, sources, c.kernelP)
	if len(affected) > n/maxPatchFraction {
		return nil, nil, false
	}

	// --- containment repair (edge additions can violate it) -------------
	// Candidates: vertices within R of a source in gNew (only their R-ball
	// can have grown) — none when the batch only removed edges.
	bfs := graph.BorrowBFS(gNew)
	defer bfs.Release()
	var candidates []int32
	if gainedEdge(gOld, gNew, sources) {
		candidates = slices.Clone(bfs.BallMulti(sources, c.R))
	}
	if len(candidates) > n/maxPatchFraction {
		return nil, nil, false
	}
	slices.Sort(candidates)
	// inside reports N_R(a) ⊆ bag in gNew.
	inside := func(a graph.V, bag []int32) bool {
		for _, w := range bfs.Ball(a, c.R) {
			if !containsSorted(bag, w) {
				return false
			}
		}
		return true
	}
	var violated []graph.V
	for _, a := range candidates {
		if !inside(int(a), c.Bag(c.Assign(int(a)))) {
			violated = append(violated, int(a))
		}
	}

	sc := borrowKernelScratch(n)
	defer sc.release()
	// What changes in the inverted lists, as (vertex, bag) cells to toggle:
	// a bag joins memberOf, and joins or leaves kernelOf.
	var memberDelta, kernelDelta []graph.Cell
	bags, kernels := c.bags.edit(), c.kernels.edit()
	centers, assign := c.centers.Edit(), c.assign.Edit()
	repaired := make([]bool, len(violated))
	for i, a := range violated {
		if repaired[i] {
			continue
		}
		// New bag N_{2R}(a): contains N_R(a), so assigning a (and any other
		// violated vertex whose R-ball it swallows) restores containment.
		bag := bfs.AppendSortedBall(nil, a, c.S)
		id := bags.add(bag)
		centers.Append(int32(a))
		assign.Set(a, id)
		info.NewBags = append(info.NewBags, int(id))
		for _, v := range bag {
			memberDelta = append(memberDelta, graph.Cell{Row: int(v), Val: id})
		}
		kern := bagKernel(nil, gNew, sc, bag, c.kernelP)
		kernels.add(kern)
		for _, v := range kern {
			kernelDelta = append(kernelDelta, graph.Cell{Row: int(v), Val: id})
		}
		for j := i + 1; j < len(violated); j++ {
			if !repaired[j] && inside(violated[j], bag) {
				assign.Set(violated[j], id)
				repaired[j] = true
			}
		}
	}
	out.centers, out.assign = centers.Paged(), assign.Paged()

	// --- exact kernel recomputation for touched preexisting bags ---------
	// A bag's kernel can change only through vertices whose p-ball changed;
	// collect the bags containing any of them, off memberOf — c's, or derived
	// from its bags when it holds none.
	memberOf := c.memberOf
	if memberOf.Cells() == 0 {
		memberOf = invertLists(&c.bags.rows, n)
	}
	var redo []int32
	for _, v := range affected {
		redo = append(redo, memberOf.Row(v)...)
	}
	slices.Sort(redo)
	for _, b := range slices.Compact(redo) {
		newKern := bagKernel(nil, gNew, sc, c.Bag(int(b)), c.kernelP)
		changed := symDiffSorted(c.Kernel(int(b)), newKern)
		if len(changed) == 0 {
			continue
		}
		kernels.set(int(b), newKern)
		for _, v := range changed {
			kernelDelta = append(kernelDelta, graph.Cell{Row: int(v), Val: b})
		}
		info.KernelChanged = append(info.KernelChanged, int(b))
	}
	out.bags, out.kernels = bags.list(c.bags), kernels.list(c.kernels)

	var vs []graph.V
	out.memberOf, vs = graph.Toggle(&memberOf, memberDelta)
	for _, v := range vs {
		out.degree = max(out.degree, out.memberOf.Len(v))
	}
	out.kernelOf, info.KernelDelta = graph.Toggle(&c.kernelOf, kernelDelta)
	return &out, info, true
}

// gainedEdge reports whether some source has a neighbor in gNew that it
// lacks in gOld: whether the batch added an edge at all.
func gainedEdge(gOld, gNew *graph.Graph, sources []graph.V) bool {
	for _, s := range sources {
		old := gOld.Neighbors(s)
		for _, w := range gNew.Neighbors(s) {
			for len(old) > 0 && old[0] < w {
				old = old[1:]
			}
			if len(old) == 0 || old[0] != w {
				return true
			}
		}
	}
	return false
}

// symDiffSorted returns the elements in exactly one of a and b, which are
// sorted.
func symDiffSorted(a, b []int32) []int32 {
	var out []int32
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			i++
			j++
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		default:
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}
