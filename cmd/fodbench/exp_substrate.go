package main

import (
	"fmt"
	"math/rand"
	"os"
	"sort"
	"time"

	"repro/internal/cover"
	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/skip"
	"repro/internal/splitter"
	"repro/internal/store"
	"repro/internal/wcol"
	"repro/internal/xbench"
)

// runF1 reproduces Figure 1 of the paper: the register file of the
// Storing-Theorem structure for n=27, ε=1/3, f = identity on
// {2,4,5,19,24,25}.
func runF1(bool) {
	s := store.New(27, 1, 1.0/3.0)
	for _, x := range []int{2, 4, 5, 19, 24, 25} {
		s.Set([]int{x}, int64(x))
	}
	fmt.Printf("d=%d, h=%d, domain {2,4,5,19,24,25}, registers used: %d\n\n",
		s.Degree(), s.Depth(), s.Registers())
	cells := s.Cells()
	for i := 1; i < len(cells); i++ {
		c := cells[i]
		kind := ""
		switch c.Delta {
		case 1:
			kind = "child/value"
		case 0:
			kind = "succ ptr"
		case -1:
			kind = "parent"
		}
		fmt.Printf("R_%-2d = (%2d, %3d)  %s\n", i, c.Delta, c.R, kind)
	}
	fmt.Println("\nAfter Remove(19) — the Section 7.3 walkthrough:")
	s.Delete([]int{19})
	fmt.Printf("registers used: %d; R_2 = (%d, %d) (was (0,19), now points to 24)\n",
		s.Registers(), s.Cells()[2].Delta, s.Cells()[2].R)
}

// runE1 measures the Storing Theorem against a Go map (no successor
// support) and a sorted slice (binary-search successor, O(n) insert).
func runE1(quick bool) {
	t := xbench.NewTable("n", "k", "inserts", "store insert", "store lookup",
		"store next", "regs/entry", "map insert", "map lookup", "sorted next")
	ns := []int{1 << 12, 1 << 14, 1 << 16, 1 << 18}
	if quick {
		ns = []int{1 << 12, 1 << 14}
	}
	for _, k := range []int{1, 2} {
		for _, n := range ns {
			m := n // |Dom| ~ n
			rng := rand.New(rand.NewSource(1))
			keys := make([][]int, m)
			for i := range keys {
				key := make([]int, k)
				for j := range key {
					key[j] = rng.Intn(n)
				}
				keys[i] = key
			}
			s := store.New(n, k, 0.25)
			insT := xbench.Time(func() {
				for i, key := range keys {
					s.Set(key, int64(i))
				}
			}) / time.Duration(m)
			lookT := xbench.Time(func() {
				for _, key := range keys {
					s.Get(key)
				}
			}) / time.Duration(m)
			nextT := xbench.Time(func() {
				for _, key := range keys {
					s.NextGeq(key)
				}
			}) / time.Duration(m)

			gm := map[string]int64{}
			mapIns := xbench.Time(func() {
				for i, key := range keys {
					gm[fmt.Sprint(key)] = int64(i)
				}
			}) / time.Duration(m)
			mapLook := xbench.Time(func() {
				for _, key := range keys {
					_ = gm[fmt.Sprint(key)]
				}
			}) / time.Duration(m)

			enc := make([]int64, 0, m)
			for _, key := range keys {
				enc = append(enc, s.EncodeKey(key))
			}
			sortInt64(enc)
			sortedNext := xbench.Time(func() {
				for _, key := range keys {
					binSearch64(enc, s.EncodeKey(key))
				}
			}) / time.Duration(m)

			t.Add(n, k, m, insT, lookT, nextT,
				float64(s.Registers())/float64(max(1, s.Len())),
				mapIns, mapLook, sortedNext)
		}
	}
	t.Render(os.Stdout)
	fmt.Println("\nshape: store insert grows ~n^ε, lookup/next stay flat; map has no successor op;")
	fmt.Println("sorted slice matches lookups but pays O(n) per insert (not shown: rebuild cost).")
}

// runE2 measures cover construction across classes.
func runE2(quick bool) {
	t := xbench.NewTable("class", "r", "n", "bags", "degree", "Σ|X|/n", "build")
	for _, class := range sparseClasses {
		for _, r := range []int{2, 4} {
			var ns []int
			var ts []time.Duration
			for _, n := range sweep(quick) {
				g := gen.Generate(gen.Class(class), n, gen.Options{Seed: 1})
				var c *cover.Cover
				d := xbench.Time(func() { c = cover.Compute(g, r, -1) })
				ns = append(ns, g.N())
				ts = append(ts, d)
				t.Add(class, r, g.N(), c.NumBags(), c.Degree(),
					float64(c.SumBagSizes())/float64(g.N()), d)
			}
			_ = ns
			_ = ts
		}
	}
	t.Render(os.Stdout)
}

// runE3 measures the distance index against per-query BFS.
func runE3(quick bool) {
	t := xbench.NewTable("class", "n", "r", "preproc", "index query", "BFS query", "speedup", "fallbacks")
	for _, class := range coreClasses {
		for _, n := range sweep(quick) {
			g := gen.Generate(gen.Class(class), n, gen.Options{Seed: 2})
			r := 2
			var ix *dist.Index
			pre := xbench.Time(func() { ix = dist.New(g, r, dist.Options{Workers: parallelism}) })
			rng := rand.New(rand.NewSource(3))
			const probes = 20000
			pairs := make([][2]int, probes)
			for i := range pairs {
				pairs[i] = [2]int{rng.Intn(g.N()), rng.Intn(g.N())}
			}
			qT := xbench.Time(func() {
				for _, p := range pairs {
					ix.Within(p[0], p[1], r)
				}
			}) / probes
			bfs := graph.NewBFS(g)
			bT := xbench.Time(func() {
				for _, p := range pairs {
					bfs.Distance(p[0], p[1], r)
				}
			}) / probes
			t.Add(class, g.N(), r, pre, qT, bT,
				float64(bT)/float64(max(int64(1), int64(qT))), ix.Stats().Fallbacks)
		}
	}
	t.Render(os.Stdout)
	fmt.Println("\nshape: index query time flat in n; BFS cost grows with local ball size.")
}

// runE4 plays the splitter game.
func runE4(quick bool) {
	t := xbench.NewTable("class", "r", "n=small", "λ", "n=large", "λ", "verdict")
	small, large := 400, 6400
	if quick {
		large = 1600
	}
	all := append(append([]string{}, sparseClasses...), "clique", "dense", "subclique")
	for _, class := range all {
		for _, r := range []int{1, 2} {
			maxRounds := 40
			ls := splitter.Lambda(gen.Generate(gen.Class(class), small, gen.Options{Seed: 1}),
				r, splitter.BallCenter{}, maxRounds)
			ll := splitter.Lambda(gen.Generate(gen.Class(class), large, gen.Options{Seed: 1}),
				r, splitter.BallCenter{}, maxRounds)
			verdict := "λ stable (nowhere dense)"
			if ll >= maxRounds {
				verdict = "Splitter loses (dense)"
			} else if ll > ls+3 {
				verdict = "λ grows"
			}
			t.Add(class, r, small, ls, large, ll, verdict)
		}
	}
	t.Render(os.Stdout)
}

// runE11 measures skip pointers against a linear scan.
func runE11(quick bool) {
	t := xbench.NewTable("class", "n", "k", "preproc", "pointers", "query", "scan query", "speedup")
	for _, class := range []string{"grid", "rtree", "bdeg", "star"} {
		for _, n := range sweep(quick) {
			g := gen.Generate(gen.Class(class), n, gen.Options{Seed: 4, Colors: 1, ColorProb: 0.3})
			cov := cover.Compute(g, 2, 2)
			var L []graph.V
			for v := 0; v < g.N(); v++ {
				if g.HasColor(v, 0) {
					L = append(L, v)
				}
			}
			k := 2
			var sp *skip.Pointers
			pre := xbench.Time(func() { sp = skip.New(g, cov, k, L) })
			rng := rand.New(rand.NewSource(5))
			const probes = 5000
			type probe struct {
				b int
				S []int
			}
			ps := make([]probe, probes)
			for i := range ps {
				// Adversarial for the scan: the kernels of the bags of b
				// and a neighbor of b cover the region right after b, so
				// the linear scan must walk across them while SKIP jumps.
				b := rng.Intn(g.N())
				near := b + 1
				if near >= g.N() {
					near = b
				}
				ps[i] = probe{b: b, S: []int{cov.Assign(b), cov.Assign(near)}}
			}
			qT := xbench.Time(func() {
				for _, p := range ps {
					sp.Query(p.b, p.S)
				}
			}) / probes
			inL := make([]bool, g.N())
			for _, v := range L {
				inL[v] = true
			}
			sT := xbench.Time(func() {
				for _, p := range ps {
					scanSkip(cov, inL, g.N(), p.b, p.S)
				}
			}) / probes
			t.Add(class, g.N(), k, pre, sp.Size(), qT, sT,
				float64(sT)/float64(max(int64(1), int64(qT))))
		}
	}
	t.Render(os.Stdout)
}

func scanSkip(cov *cover.Cover, inL []bool, n int, b int, S []int) int {
	for v := b; v < n; v++ {
		if !inL[v] {
			continue
		}
		bad := false
		for _, x := range S {
			if cov.InKernel(x, v) {
				bad = true
				break
			}
		}
		if !bad {
			return v
		}
	}
	return -1
}

// runE13 measures the weak r-accessibility characterization of Section 2:
// wcol_r under a degeneracy order stays bounded on nowhere dense classes
// (constant c_r = bounded expansion) and grows on the dense controls.
func runE13(quick bool) {
	t := xbench.NewTable("class", "n", "degeneracy", "wcol_1", "wcol_2", "wcol_3", "verdict")
	all := append(append([]string{}, sparseClasses...), "ktree", "outerplanar", "dense", "subclique")
	for _, class := range all {
		sizes := []int{1000, 8000}
		if quick {
			sizes = []int{500, 2000}
		}
		var lastW2 []int
		for _, n := range sizes {
			g := gen.Generate(gen.Class(class), n, gen.Options{Seed: 1})
			order := wcol.DegeneracyOrder(g)
			w1 := wcol.WCol(g, order, 1)
			w2 := wcol.WCol(g, order, 2)
			w3 := wcol.WCol(g, order, 3)
			lastW2 = append(lastW2, w2)
			verdict := ""
			if n == sizes[len(sizes)-1] {
				switch {
				case lastW2[len(lastW2)-1] <= lastW2[0]+2:
					verdict = "bounded (c_r-like)"
				case float64(lastW2[len(lastW2)-1]) < float64(g.N())/8:
					verdict = "slow growth (n^ε-like)"
				default:
					verdict = "dense"
				}
			}
			t.Add(class, g.N(), wcol.Degeneracy(g), w1, w2, w3, verdict)
		}
	}
	t.Render(os.Stdout)
	fmt.Println("\nshape: constants on bounded-expansion classes; growth on dense controls —")
	fmt.Println("the loss of the constants c_r is exactly why the paper needs new machinery (§2).")
}

// runE9 measures sparsity: the fitted exponent of ‖G‖ against |G|.
func runE9(quick bool) {
	t := xbench.NewTable("class", "n", "edges", "‖G‖/|G|", "fitted edge exponent")
	all := append(append([]string{}, sparseClasses...), "clique", "dense", "subclique")
	for _, class := range all {
		var ns []int
		var es []float64
		rows := [][]interface{}{}
		for _, n := range sweep(quick) {
			if (class == "clique") && n > 4000 {
				continue
			}
			g := gen.Generate(gen.Class(class), n, gen.Options{Seed: 1})
			ns = append(ns, g.N())
			es = append(es, float64(g.M())+1)
			rows = append(rows, []interface{}{class, g.N(), g.M(),
				float64(g.Size()) / float64(g.N())})
		}
		alpha := xbench.FitExponentF(ns, es)
		for i, row := range rows {
			if i == len(rows)-1 {
				t.Add(append(row, alpha)...)
			} else {
				t.Add(append(row, "")...)
			}
		}
	}
	t.Render(os.Stdout)
	fmt.Println("\nshape: exponent ≈ 1 on nowhere dense classes, ≈ 2 for cliques, ≈ 1.5 for the dense control.")
}

func sortInt64(xs []int64) {
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
}

func binSearch64(xs []int64, k int64) int {
	lo, hi := 0, len(xs)
	for lo < hi {
		mid := (lo + hi) / 2
		if xs[mid] < k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
