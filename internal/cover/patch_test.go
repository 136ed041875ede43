package cover

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// bruteKernel computes K_p(X) = {a ∈ X : N_p^{G[X]}(a) ⊆ X ... } directly
// from the definition used throughout: a is in the kernel iff its distance
// inside G[X] to the bag boundary exceeds p (equivalently, every vertex
// within p of a inside G[X] is interior). This mirrors bagKernel but goes
// through an independent per-vertex BFS, so a patch bug cannot cancel out.
func bruteKernel(g *graph.Graph, bag32 []int32, p int) []int32 {
	inBag := map[graph.V]bool{}
	bag := make([]graph.V, len(bag32))
	for i, v := range bag32 {
		bag[i] = int(v)
		inBag[int(v)] = true
	}
	boundary := map[graph.V]bool{}
	for _, v := range bag {
		for _, w := range g.Neighbors(v) {
			if !inBag[int(w)] {
				boundary[v] = true
				break
			}
		}
	}
	var kern []int32
	for _, a := range bag {
		// BFS inside G[X] from a, truncated at p; a is kernel iff no
		// boundary vertex within p-1... boundary depth convention: boundary
		// vertices are at distance 1 from the complement, kernel = depth>p.
		// Equivalent per-vertex check: min over boundary b of
		// (dist_{G[X]}(a,b) + 1) > p.
		dist := map[graph.V]int{a: 0}
		queue := []graph.V{a}
		ok := !boundary[a] || p < 1
		if boundary[a] && p >= 1 {
			kernAppendIfOK(&kern, a, false)
			continue
		}
		for head := 0; head < len(queue) && ok; head++ {
			v := queue[head]
			if dist[v] >= p-1 {
				continue
			}
			for _, w := range g.Neighbors(v) {
				if !inBag[int(w)] {
					continue
				}
				if _, seen := dist[int(w)]; seen {
					continue
				}
				dist[int(w)] = dist[v] + 1
				if boundary[int(w)] && dist[int(w)]+1 <= p {
					ok = false
					break
				}
				queue = append(queue, int(w))
			}
		}
		kernAppendIfOK(&kern, a, ok)
	}
	return kern
}

func kernAppendIfOK(kern *[]int32, a graph.V, ok bool) {
	if ok {
		*kern = append(*kern, int32(a))
	}
}

func edgeEditBatch(rng *rand.Rand, g *graph.Graph, count int) ([]graph.Edit, []graph.V) {
	var edits []graph.Edit
	var srcs []graph.V
	seen := map[graph.V]bool{}
	for len(edits) < count {
		u, v := rng.Intn(g.N()), rng.Intn(g.N())
		if u == v {
			continue
		}
		op := graph.AddEdge
		if g.HasEdge(u, v) || rng.Intn(2) == 0 {
			op = graph.RemoveEdge
		}
		edits = append(edits, graph.Edit{Op: op, U: u, V: v})
		for _, w := range []graph.V{u, v} {
			if !seen[w] {
				seen[w] = true
				srcs = append(srcs, w)
			}
		}
	}
	sort.Ints(srcs)
	return edits, srcs
}

// sameRows reports whether two row stores hold the same flat CSR pair.
func sameRows(a, b graph.Rows[int32]) bool {
	aOff, aFlat := a.Flat()
	bOff, bFlat := b.Flat()
	return reflect.DeepEqual(aOff, bOff) && reflect.DeepEqual(aFlat, bFlat)
}

// measuredDegree is the longest row of the bags' inverse.
func measuredDegree(c *Cover) int {
	inv, d := invertLists(&c.bags.rows, c.g.N()), 0
	for v := 0; v < c.g.N(); v++ {
		d = max(d, inv.Len(v))
	}
	return d
}

// TestPatchDifferential: over a chain of patches, from a built cover and
// from a restored one, every patched cover of the edited graph satisfies the
// cover axioms (Validate brute-forces containment and bag radius) and its
// kernels are exactly the true kernels of every bag in the new graph — the
// property the skip pointers' soundness proof rests on. Its inverted lists
// are the exact inverses of its lists: kernelOf throughout, memberOf once the
// first edge patch has derived it.
func TestPatchDifferential(t *testing.T) {
	for _, class := range []gen.Class{gen.Path, gen.Grid, gen.RandomTree, gen.BoundedDegree} {
		g0 := gen.Generate(class, 300, gen.Options{Seed: 23})
		for _, r := range []int{1, 2} {
			built := Compute(g0, r, r)
			restored, err := FromParts(g0, built.Parts())
			if err != nil {
				t.Fatal(err)
			}
			for _, from := range []struct {
				start string
				cov   *Cover
			}{{"built", built}, {"restored", restored}} {
				g, cov := g0, from.cov
				rng := rand.New(rand.NewSource(int64(r) * 7))
				for trial := 0; trial < 8; trial++ {
					label := fmt.Sprintf("%s r=%d from %s, trial %d", class, r, from.start, trial)
					edits, srcs := edgeEditBatch(rng, g, 1+rng.Intn(4))
					gNew, err := graph.Patch(g, edits)
					if err != nil {
						t.Fatal(err)
					}
					out, info, ok := cov.Patch(g, gNew, srcs)
					if !ok {
						continue // avalanche bail: caller rebuilds
					}
					if err := out.Validate(); err != nil {
						t.Fatalf("%s: patched cover invalid: %v", label, err)
					}
					// Exact kernels everywhere, including new bags.
					for i := 0; i < out.NumBags(); i++ {
						want := bruteKernel(gNew, out.Bag(i), r)
						got := out.Kernel(i)
						if len(want) == 0 && len(got) == 0 {
							continue
						}
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("%s: bag %d kernel = %v, want %v", label, i, got, want)
						}
					}
					// The inverted lists stay the exact inverses, cell for cell, and
					// the carried degree is the measured one.
					if !sameRows(out.memberOf, invertLists(&out.bags.rows, gNew.N())) {
						t.Fatalf("%s: patched memberOf is not the inverse of the bags", label)
					}
					if !sameRows(out.kernelOf, invertLists(&out.kernels.rows, gNew.N())) {
						t.Fatalf("%s: patched kernelOf is not the inverse of the kernels", label)
					}
					if d := measuredDegree(out); out.Degree() != d {
						t.Fatalf("%s: carried degree %d, measured %d", label, out.Degree(), d)
					}
					// KernelDelta completeness: vertices outside it keep their
					// kernel lists verbatim (restricted to preexisting bags they
					// already had — new-bag members are all inside the delta).
					inDelta := map[graph.V]bool{}
					for _, v := range info.KernelDelta {
						inDelta[v] = true
					}
					for v := 0; v < gNew.N(); v++ {
						if inDelta[v] {
							continue
						}
						if !reflect.DeepEqual(cov.KernelsOf(v), out.KernelsOf(v)) {
							t.Fatalf("%s: vertex %d outside KernelDelta changed kernels: %v -> %v",
								label, v, cov.KernelsOf(v), out.KernelsOf(v))
						}
					}
					// The source cover is untouched.
					if err := cov.Validate(); err != nil {
						t.Fatalf("%s: patch corrupted the source cover: %v", label, err)
					}
					g, cov = gNew, out
				}
			}
		}
	}
}

// TestPatchColorOnly: empty source list shares everything.
func TestPatchColorOnly(t *testing.T) {
	g := gen.Generate(gen.Path, 100, gen.Options{Seed: 1, Colors: 1})
	cov := Compute(g, 2, 2)
	gNew, err := graph.Patch(g, []graph.Edit{{Op: graph.AddColor, U: 5, Color: 0}})
	if err != nil {
		t.Fatal(err)
	}
	out, info, ok := cov.Patch(g, gNew, nil)
	if !ok || len(info.NewBags) != 0 || len(info.KernelDelta) != 0 {
		t.Fatalf("color-only patch: ok=%v info=%+v", ok, info)
	}
	if out.NumBags() != cov.NumBags() {
		t.Fatal("color-only patch changed the bag set")
	}
	if err := out.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestResidentCover: a built cover, with or without kernels, and a restored
// one hold bags, centers, assignment, kernels and kernelOf and no memberOf;
// a colour-only patch shares that, and the first edge patch derives memberOf
// and leaves it the exact inverse of its bags.
func TestResidentCover(t *testing.T) {
	names := func(c *Cover) []string {
		var out []string
		for _, st := range c.Resident() {
			if st.Bytes <= 0 {
				t.Fatalf("%s holds %d bytes", st.Name, st.Bytes)
			}
			out = append(out, st.Name)
		}
		return out
	}
	lean := []string{"bags", "kernels", "kernelOf", "assign"}
	g := gen.Generate(gen.Grid, 900, gen.Options{Seed: 3, Colors: 1})
	if got := names(ComputeWith(g, 2, Options{})); !reflect.DeepEqual(got, []string{"bags", "assign"}) {
		t.Fatalf("a cover without kernels holds %v", got)
	}
	built := Compute(g, 2, 2)
	restored, err := FromParts(g, built.Parts())
	if err != nil {
		t.Fatal(err)
	}
	gColor, err := graph.Patch(g, []graph.Edit{{Op: graph.AddColor, U: 5, Color: 0}})
	if err != nil {
		t.Fatal(err)
	}
	colored, _, ok := built.Patch(g, gColor, nil)
	if !ok {
		t.Fatal("a colour-only patch refused")
	}
	type named struct {
		what string
		c    *Cover
	}
	for _, nc := range []named{{"built", built}, {"restored", restored}, {"colour-patched", colored}} {
		what, c := nc.what, nc.c
		if got := names(c); !reflect.DeepEqual(got, lean) {
			t.Fatalf("%s cover holds %v, want %v", what, got, lean)
		}
		if c.memberOf.Cells() != 0 {
			t.Fatalf("%s cover holds memberOf", what)
		}
	}
	for _, nc := range []named{{"built", built}, {"restored", restored}} {
		what, c := nc.what, nc.c
		gNew, err := graph.Patch(g, []graph.Edit{{Op: graph.AddEdge, U: 0, V: 450}})
		if err != nil {
			t.Fatal(err)
		}
		out, _, ok := c.Patch(g, gNew, []graph.V{0, 450})
		if !ok {
			t.Fatalf("%s: one added edge refused to patch", what)
		}
		if got := names(out); !reflect.DeepEqual(got, append(lean, "memberOf")) {
			t.Fatalf("an edge patch of the %s cover holds %v", what, got)
		}
		if !sameRows(out.memberOf, invertLists(&out.bags.rows, g.N())) {
			t.Fatalf("an edge patch of the %s cover derived a memberOf that is not the inverse of its bags", what)
		}
		if c.memberOf.Cells() != 0 {
			t.Fatalf("an edge patch wrote memberOf into its %s source", what)
		}
	}
}
