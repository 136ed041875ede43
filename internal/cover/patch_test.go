package cover

import (
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

// TestPatchDifferential: a patched cover of the edited graph satisfies the
// cover axioms (Validate brute-forces containment and bag radius) and its
// kernels are exactly the true kernels of every bag in the new graph —
// the property the skip pointers' soundness proof rests on.
func TestPatchDifferential(t *testing.T) {
	for _, class := range []gen.Class{gen.Path, gen.Grid, gen.RandomTree, gen.BoundedDegree} {
		g := gen.Generate(class, 300, gen.Options{Seed: 23})
		for _, r := range []int{1, 2} {
			cov := Compute(g, r)
			cov.ComputeKernels(r)
			rng := rand.New(rand.NewSource(int64(r) * 7))
			for trial := 0; trial < 8; trial++ {
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
					t.Fatalf("%s r=%d trial %d: patched cover invalid: %v", class, r, trial, err)
				}
				// Exact kernels everywhere, including new bags.
				for i := 0; i < out.NumBags(); i++ {
					want := bruteKernel(gNew, out.Bag(i), r)
					got := out.Kernel(i)
					if len(want) == 0 && len(got) == 0 {
						continue
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s r=%d trial %d: bag %d kernel = %v, want %v",
							class, r, trial, i, got, want)
					}
				}
				// The inverted lists stay the exact inverses, cell for cell, and
				// the carried degree is the measured one.
				for _, inv := range []struct {
					name  string
					got   graph.Rows[int32]
					lists [][]int32
				}{{"memberOf", out.memberOf, out.bags.rows}, {"kernelOf", out.kernelOf, out.kernels.rows}} {
					want := invertLists(inv.lists, gNew.N())
					gotOff, gotFlat := inv.got.Flat()
					wantOff, wantFlat := want.Flat()
					if !reflect.DeepEqual(gotOff, wantOff) || !reflect.DeepEqual(gotFlat, wantFlat) {
						t.Fatalf("%s r=%d trial %d: patched %s is not the inverse of its lists", class, r, trial, inv.name)
					}
				}
				fresh := *out
				fresh.buildMembership()
				if out.Degree() != fresh.Degree() {
					t.Fatalf("%s r=%d trial %d: carried degree %d, measured %d", class, r, trial, out.Degree(), fresh.Degree())
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
						t.Fatalf("vertex %d outside KernelDelta changed kernels: %v -> %v",
							v, cov.KernelsOf(v), out.KernelsOf(v))
					}
				}
				// The original cover is untouched.
				if err := cov.Validate(); err != nil {
					t.Fatalf("patch corrupted the source cover: %v", err)
				}
			}
		}
	}
}

// TestPatchColorOnly: empty source list shares everything.
func TestPatchColorOnly(t *testing.T) {
	g := gen.Generate(gen.Path, 100, gen.Options{Seed: 1, Colors: 1})
	cov := Compute(g, 2)
	cov.ComputeKernels(2)
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
