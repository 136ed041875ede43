package cover

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// refCover is the reference the one-pass build is held to, written from the
// rule and not from cover.go: per smallest uncovered vertex a one r-ball to
// pick the center c (the uncovered vertex of N_r(a) farthest from a, ties to
// the larger id), one 2r-ball around c, one boundary BFS over the whole ball
// to find the r-interior, a sort of every bag, and for the kernels one more
// boundary BFS a bag. Plain ints, no arena, nothing shared with cover.go but
// the graph.
type refCover struct {
	bags    [][]int
	centers []int
	assign  []int32
}

// refScratch is per-vertex state of refNear, all zero between calls.
type refScratch struct {
	in    []bool
	depth []int
}

func newRefScratch(g *graph.Graph) *refScratch {
	return &refScratch{in: make([]bool, g.N()), depth: make([]int, g.N())}
}

// refNear returns, aligned with the vertex set xs, whether each vertex is
// within limit of the complement of xs (Lemma 5.7: a multi-source BFS from
// the vertices with a neighbor outside, which are at distance 1). The
// deleted code excluded those at limit 0 too, where the definition excludes
// nothing; that is not reproduced.
func refNear(g *graph.Graph, sc *refScratch, xs []int, limit int) []bool {
	near := make([]bool, len(xs))
	if limit < 1 {
		return near
	}
	in, depth := sc.in, sc.depth
	for _, v := range xs {
		in[v] = true
	}
	var queue []int
	for _, v := range xs {
		for _, w := range g.Neighbors(v) {
			if !in[w] {
				depth[v] = 1
				queue = append(queue, v)
				break
			}
		}
	}
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		if depth[v] >= limit {
			continue
		}
		for _, w := range g.Neighbors(v) {
			if in[w] && depth[w] == 0 {
				depth[w] = depth[v] + 1
				queue = append(queue, int(w))
			}
		}
	}
	for i, v := range xs {
		near[i] = depth[v] > 0
		in[v], depth[v] = false, 0
	}
	return near
}

func refCompute(g *graph.Graph, r int) *refCover {
	rc := &refCover{assign: make([]int32, g.N())}
	for i := range rc.assign {
		rc.assign[i] = -1
	}
	bfs, sc := graph.NewBFS(g), newRefScratch(g)
	for a := 0; a < g.N(); a++ {
		if rc.assign[a] >= 0 {
			continue
		}
		type far struct{ d, v int }
		best := far{0, a}
		for _, v := range bfs.Ball(a, r) {
			cand := far{bfs.Dist(int(v)), int(v)}
			if rc.assign[v] < 0 && (cand.d > best.d || cand.d == best.d && cand.v > best.v) {
				best = cand
			}
		}
		var bag []int
		for _, v := range bfs.Ball(best.v, 2*r) {
			bag = append(bag, int(v))
		}
		id := int32(len(rc.bags))
		for i, near := range refNear(g, sc, bag, r) {
			if !near && rc.assign[bag[i]] < 0 {
				rc.assign[bag[i]] = id
			}
		}
		sort.Ints(bag)
		rc.bags = append(rc.bags, bag)
		rc.centers = append(rc.centers, best.v)
	}
	return rc
}

func (rc *refCover) kernels(g *graph.Graph, p int) [][]int {
	out, sc := make([][]int, len(rc.bags)), newRefScratch(g)
	for i, bag := range rc.bags {
		for j, near := range refNear(g, sc, bag, p) {
			if !near {
				out[i] = append(out[i], bag[j])
			}
		}
	}
	return out
}

// refParts lays the reference out the way a snapshot holds a cover.
func (rc *refCover) refParts(g *graph.Graph, r, p int) Parts {
	csr := func(lists [][]int) (off, data []int32) {
		off, data = []int32{0}, []int32{}
		for _, l := range lists {
			for _, v := range l {
				data = append(data, int32(v))
			}
			off = append(off, int32(len(data)))
		}
		return off, data
	}
	parts := Parts{R: r, KernelP: p, Assign: rc.assign}
	for _, ctr := range rc.centers {
		parts.Centers = append(parts.Centers, int32(ctr))
	}
	parts.BagOff, parts.BagData = csr(rc.bags)
	if p >= 0 {
		parts.KernOff, parts.KernData = csr(rc.kernels(g, p))
	}
	return parts
}

// refInverse returns row v = the ascending indices of the lists holding v.
func refInverse(off, data []int32, n int) [][]int32 {
	inv := make([][]int32, n)
	for i := 0; i+1 < len(off); i++ {
		for _, v := range data[off[i]:off[i+1]] {
			inv[v] = append(inv[v], int32(i))
		}
	}
	return inv
}

// sameAsParts checks c, field by field, against the reference laid out as
// want: the serialized arrays, the rows the accessors hand out, kernelOf,
// and the degree and Σ|X| of the bags' inverse.
func sameAsParts(c *Cover, want Parts) error {
	got := c.Parts()
	if got.R != want.R || got.KernelP != want.KernelP {
		return fmt.Errorf("radii (%d, %d), want (%d, %d)", got.R, got.KernelP, want.R, want.KernelP)
	}
	for _, f := range []struct {
		name      string
		got, want []int32
	}{
		{"BagOff", got.BagOff, want.BagOff}, {"BagData", got.BagData, want.BagData},
		{"Centers", got.Centers, want.Centers}, {"Assign", got.Assign, want.Assign},
		{"KernOff", got.KernOff, want.KernOff}, {"KernData", got.KernData, want.KernData},
	} {
		if !slices.Equal(f.got, f.want) {
			return fmt.Errorf("Parts().%s differs from the reference (%d and %d entries)", f.name, len(f.got), len(f.want))
		}
	}
	n, nb := c.g.N(), len(want.Centers)
	if c.NumBags() != nb {
		return fmt.Errorf("%d bags, want %d", c.NumBags(), nb)
	}
	for i := 0; i < nb; i++ {
		if !slices.Equal(c.Bag(i), want.BagData[want.BagOff[i]:want.BagOff[i+1]]) || c.Center(i) != int(want.Centers[i]) {
			return fmt.Errorf("bag %d or its center differs", i)
		}
		if want.KernelP >= 0 && !slices.Equal(c.Kernel(i), want.KernData[want.KernOff[i]:want.KernOff[i+1]]) {
			return fmt.Errorf("kernel %d differs", i)
		}
	}
	memberOf, degree, cells := refInverse(want.BagOff, want.BagData, n), 0, 0
	for v := 0; v < n; v++ {
		if c.Assign(v) != int(want.Assign[v]) {
			return fmt.Errorf("Assign(%d) = %d, want %d", v, c.Assign(v), want.Assign[v])
		}
		degree, cells = max(degree, len(memberOf[v])), cells+len(memberOf[v])
	}
	if c.Degree() != degree || c.SumBagSizes() != cells {
		return fmt.Errorf("degree %d over %d cells, want %d over %d", c.Degree(), c.SumBagSizes(), degree, cells)
	}
	if want.KernelP >= 0 {
		kernelOf := refInverse(want.KernOff, want.KernData, n)
		for v := 0; v < n; v++ {
			if !slices.Equal(c.KernelsOf(v), kernelOf[v]) {
				return fmt.Errorf("kernelOf row %d = %v, want %v", v, c.KernelsOf(v), kernelOf[v])
			}
		}
	}
	return nil
}

// kernelsByDefinition checks K_p(X) = {a ∈ X : N_p(a) ⊆ X} for every bag,
// by one BFS per cell.
func kernelsByDefinition(c *Cover, p int) error {
	bfs := graph.NewBFS(c.g)
	inBag := make([]bool, c.g.N())
	for i := 0; i < c.NumBags(); i++ {
		for _, v := range c.Bag(i) {
			inBag[v] = true
		}
		var want []int32
		for _, a := range c.Bag(i) {
			inside := true
			for _, w := range bfs.Ball(int(a), p) {
				if !inBag[w] {
					inside = false
					break
				}
			}
			if inside {
				want = append(want, a)
			}
		}
		for _, v := range c.Bag(i) {
			inBag[v] = false
		}
		if !slices.Equal(c.Kernel(i), want) {
			return fmt.Errorf("K_%d of bag %d (center %d, %d vertices) = %v, by definition %v", p, i, c.Center(i), len(c.Bag(i)), c.Kernel(i), want)
		}
	}
	return nil
}

// twoComponents is a graph no generator makes: a cycle with a chord, a path
// that does not touch it, and isolated vertices in between and at both ends.
func twoComponents(n int) *graph.Graph {
	b := graph.NewBuilder(n, 0)
	if n < 8 {
		return b.Build()
	}
	cyc := n / 2
	for v := 1; v < cyc; v++ {
		b.AddEdge(v, v%(cyc-1)+1)
	}
	b.AddEdge(1, cyc/2)
	for v := cyc + 2; v+2 < n; v++ {
		b.AddEdge(v, v+1)
	}
	return b.Build()
}

// TestOnePassByDefinition holds the one-pass build to the definitions — the
// cover axioms (Validate: N_r(a) ⊆ bag 𝒳(a) ⊆ N_2r(center)) and K_p(X) =
// {a ∈ X : N_p(a) ⊆ X} for every p ≤ r, filtered off the depth column by
// Compute(g, r, p) — and to the reference construction, over sizes around
// the 64-row block of the inverted lists.
//
// Mutation-checked: seeding the boundary BFS without its first true boundary
// vertex, and capping the depth column at r instead of r+1, each fail here
// (the first on kernels and containment, the second on K_r, which comes out
// empty).
func TestOnePassByDefinition(t *testing.T) {
	type graphOf func(n int) *graph.Graph
	byClass := func(class gen.Class) graphOf {
		return func(n int) *graph.Graph { return gen.Generate(class, n, gen.Options{Seed: int64(n)}) }
	}
	graphs := []struct {
		name string
		make graphOf
	}{
		{"path", byClass(gen.Path)}, {"star", byClass(gen.Star)}, {"btree", byClass(gen.BalancedTree)},
		{"grid", byClass(gen.Grid)}, {"kinggrid", byClass(gen.KingGrid)}, {"bdeg", byClass(gen.BoundedDegree)},
		{"sparserandom", byClass(gen.SparseRandom)}, {"two-components", twoComponents},
	}
	for _, gr := range graphs {
		for _, n := range []int{1, 2, 63, 64, 65, 900} {
			g := gr.make(n)
			for r := 1; r <= 4; r++ {
				label := fmt.Sprintf("%s n=%d r=%d", gr.name, n, r)
				ref := refCompute(g, r)
				for p := r; p >= -1; p-- {
					c := Compute(g, r, p)
					if err := c.Validate(); err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if p >= 0 {
						if err := kernelsByDefinition(c, p); err != nil {
							t.Fatalf("%s: %v", label, err)
						}
					}
					if err := sameAsParts(c, ref.refParts(g, r, p)); err != nil {
						t.Fatalf("%s p=%d: %v", label, p, err)
					}
				}
			}
		}
	}
}

// TestOnePassMatchesReference: on the graphs the construction was sized on,
// every array of the cover and of its kernels equals the reference's.
func TestOnePassMatchesReference(t *testing.T) {
	graphs := []struct {
		class gen.Class
		n     int
	}{
		{gen.Grid, 2000}, {gen.Grid, 4000}, {gen.Grid, 8000}, {gen.Grid, 32000},
		{gen.BoundedDegree, 8000}, {gen.RandomTree, 8000}, {gen.SparseRandom, 4000},
	}
	if testing.Short() {
		t.Skip("one goroutine, nothing for the race detector; tier 1 runs it")
	}
	for _, gr := range graphs {
		g := gen.Generate(gr.class, gr.n, gen.Options{Seed: 1})
		for _, r := range []int{2, 4} {
			c := Compute(g, r, r/2)
			if err := sameAsParts(c, refCompute(g, r).refParts(g, r, r/2)); err != nil {
				t.Fatalf("%s n=%d r=%d: %v", gr.class, gr.n, r, err)
			}
		}
	}
}

// TestCoverCenterRule replays the construction bag by bag from the finished
// cover, on every nowhere dense class: a vertex is covered once its r-ball
// lies inside a bag, a_i is the smallest vertex no bag before i covers, and
// the center c_i of bag i is within r of a_i, was uncovered at its turn, and
// has no uncovered rival in N_r(a_i) farther from a_i, or as far with a
// larger id; Assign(a_i) is i, and the cover passes Validate.
//
// Mutation-checked: a center taken from N_{r+1}(a) and a center that is
// always a each fail here (and in the reference tests above).
func TestCoverCenterRule(t *testing.T) {
	for _, class := range gen.Classes {
		if !gen.NowhereDense(class) {
			continue
		}
		for _, size := range []int{50, 300} {
			g := gen.Generate(class, size, gen.Options{Seed: 3})
			n, bfs := g.N(), graph.NewBFS(g)
			inBag := make([]bool, n)
			for _, r := range []int{1, 2, 4} {
				label := fmt.Sprintf("%s n=%d r=%d", class, n, r)
				c := Compute(g, r, -1)
				if err := c.Validate(); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				covered, a := make([]bool, n), 0
				for i := 0; i < c.NumBags(); i++ {
					for a < n && covered[a] {
						a++
					}
					if a == n {
						t.Fatalf("%s: bag %d comes after every vertex is covered", label, i)
					}
					if c.Assign(a) != i {
						t.Fatalf("%s: Assign(a_%d = %d) = %d", label, i, a, c.Assign(a))
					}
					ctr := c.Center(i)
					near := bfs.Ball(a, r)
					dc := bfs.Dist(ctr)
					switch {
					case dc < 0:
						t.Fatalf("%s: center %d of bag %d is farther than %d from a_i = %d", label, ctr, i, r, a)
					case covered[ctr]:
						t.Fatalf("%s: center %d of bag %d was covered before its turn", label, ctr, i)
					}
					for _, v := range near {
						if d := bfs.Dist(int(v)); !covered[v] && (d > dc || d == dc && int(v) > ctr) {
							t.Fatalf("%s: bag %d: uncovered %d at distance %d from a_i = %d beats center %d at %d", label, i, v, d, a, ctr, dc)
						}
					}
					for _, v := range c.Bag(i) {
						inBag[v] = true
					}
					for _, v := range c.Bag(i) {
						inside := true
						for _, w := range bfs.Ball(int(v), r) {
							inside = inside && inBag[w]
						}
						covered[v] = covered[v] || inside
					}
					for _, v := range c.Bag(i) {
						inBag[v] = false
					}
				}
				if i := slices.Index(covered, false); i >= 0 {
					t.Fatalf("%s: vertex %d is covered by no bag", label, i)
				}
			}
		}
	}
}

// TestComputeKernelsRepeated: ComputeKernels may be called again, with the
// same p and with a smaller one, on a built cover, on a restored one, on a
// patched one and on one whose radius has no byte-sized cap (Compute runs
// bagKernel, no column); every result is the reference's for the graph the
// cover is then over.
func TestComputeKernelsRepeated(t *testing.T) {
	path := gen.Generate(gen.Path, 900, gen.Options{})
	wide := Compute(path, 255, 255)
	for _, p := range []int{255, 200} {
		if p != 255 {
			wide.ComputeKernels(p)
		}
		if err := sameAsParts(wide, refCompute(path, 255).refParts(path, 255, p)); err != nil {
			t.Fatalf("path, r=255, p=%d: %v", p, err)
		}
	}
	for _, class := range []gen.Class{gen.Grid, gen.BoundedDegree, gen.RandomTree} {
		g := gen.Generate(class, 900, gen.Options{Seed: 5})
		const r = 3
		ref := refCompute(g, r)
		c := Compute(g, r, r)
		for _, p := range []int{r, r, 1} {
			c.ComputeKernels(p)
			if err := sameAsParts(c, ref.refParts(g, r, p)); err != nil {
				t.Fatalf("%s built, p=%d: %v", class, p, err)
			}
		}

		restored, err := FromParts(g, c.Parts())
		if err != nil {
			t.Fatal(err)
		}
		if &restored.Bag(0)[0] != &c.Bag(0)[0] {
			t.Fatalf("%s: FromParts copied the bags", class)
		}
		for _, p := range []int{1, r, 2} {
			restored.ComputeKernels(p)
			if err := sameAsParts(restored, ref.refParts(g, r, p)); err != nil {
				t.Fatalf("%s restored, p=%d: %v", class, p, err)
			}
		}

		// A patched cover is not the greedy cover of its graph, so the
		// reference for its kernels is its own bags over the edited graph.
		c.ComputeKernels(r)
		rng := rand.New(rand.NewSource(9))
		for trial := 0; trial < 4; trial++ {
			edits, srcs := edgeEditBatch(rng, g, 2)
			gNew, err := graph.Patch(g, edits)
			if err != nil {
				t.Fatal(err)
			}
			patched, _, ok := c.Patch(g, gNew, srcs)
			if !ok {
				continue
			}
			own := &refCover{assign: patched.assign.Flat()}
			for i := 0; i < patched.NumBags(); i++ {
				bag := make([]int, len(patched.Bag(i)))
				for j, v := range patched.Bag(i) {
					bag[j] = int(v)
				}
				own.bags, own.centers = append(own.bags, bag), append(own.centers, patched.Center(i))
			}
			for _, p := range []int{r, 1} {
				patched.ComputeKernels(p)
				if err := sameAsParts(patched, own.refParts(gNew, r, p)); err != nil {
					t.Fatalf("%s patched (trial %d), p=%d: %v", class, trial, p, err)
				}
				if err := kernelsByDefinition(patched, p); err != nil {
					t.Fatalf("%s patched (trial %d): %v", class, trial, err)
				}
			}
			if err := sameAsParts(c, ref.refParts(g, r, r)); err != nil {
				t.Fatalf("%s: a patch, or a ComputeKernels on its result, wrote into the source cover: %v", class, err)
			}
		}
	}
}
