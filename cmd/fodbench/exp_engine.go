package main

import (
	"fmt"
	"math/rand"
	"os"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/fo"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/naive"
	"repro/internal/xbench"
)

// benchQuery is the Example-2 query of the paper: dist(x,y) > 2 ∧ Blue(y),
// the running example of Section 5.1.5.
const benchQuery = "dist(x,y) > 2 & C0(y)"

// buildEngine builds the engine of one experiment row. Every build's
// phase spans go to benchReg, so -debug-addr shows them aggregated while
// the experiments run.
func buildEngine(class string, n int, query string, vars ...string) (*graph.Graph, *core.Engine, *core.LocalQuery, time.Duration) {
	g := gen.Generate(gen.Class(class), n, gen.Options{Seed: 7, Colors: 1, ColorProb: 0.05})
	phi := fo.MustParse(query)
	vs := make([]fo.Var, len(vars))
	for i, v := range vars {
		vs[i] = fo.Var(v)
	}
	lq, err := core.Compile(phi, vs, core.CompileOptions{})
	if err != nil {
		panic(err)
	}
	var e *core.Engine
	pre := xbench.Time(func() {
		e, err = core.Preprocess(g, lq, core.Options{Parallelism: parallelism, Obs: benchReg})
		if err != nil {
			panic(err)
		}
	})
	return g, e, lq, pre
}

// runE5 measures NextGeq after preprocessing.
func runE5(quick bool) {
	t := xbench.NewTable("class", "n", "preproc", "preproc/n", "NextGeq", "candidates/call")
	for _, class := range coreClasses {
		var ns []int
		var pres []time.Duration
		for _, n := range sweep(quick) {
			g, e, _, pre := buildEngine(class, n, benchQuery, "x", "y")
			rng := rand.New(rand.NewSource(8))
			const probes = 3000
			tuples := make([][]int, probes)
			for i := range tuples {
				tuples[i] = []int{rng.Intn(g.N()), rng.Intn(g.N())}
			}
			before := e.Stats().Candidates
			qT := xbench.Time(func() {
				for _, a := range tuples {
					e.NextGeq(a)
				}
			}) / probes
			cands := float64(e.Stats().Candidates-before) / probes
			ns = append(ns, g.N())
			pres = append(pres, pre)
			t.Add(class, g.N(), pre, time.Duration(int64(pre)/int64(g.N())), qT, cands)
		}
		alpha := xbench.FitExponent(ns, pres)
		t.Add(class, "—", "", "", "", fmt.Sprintf("preproc exponent %.2f", alpha))
	}
	t.Render(os.Stdout)
	fmt.Println("\nshape: preprocessing ≈ n^(1+ε); NextGeq flat in n.")
}

// runE6 measures enumeration delay against the naive streaming enumerator.
func runE6(quick bool) {
	t := xbench.NewTable("class", "n", "solutions", "max delay", "p99", "p50",
		"naive max delay", "naive p99")
	limit := 20000
	for _, class := range coreClasses {
		for _, n := range sweep(quick) {
			g, e, lq, _ := buildEngine(class, n, benchQuery, "x", "y")
			var delays []time.Duration
			count := 0
			last := time.Now()
			e.Enumerate(func([]int) bool {
				now := time.Now()
				delays = append(delays, now.Sub(last))
				last = now
				count++
				return count < limit
			})
			st := xbench.SummarizeDelays(delays)

			// Naive streaming baseline, capped to the same solution count
			// and a time budget (its delay grows with n).
			ne := naive.NewEnumerator(g, lq)
			var nDelays []time.Duration
			budget := time.Now().Add(3 * time.Second)
			for i := 0; i < st.Count; i++ {
				start := time.Now()
				_, ok := ne.Next()
				nDelays = append(nDelays, time.Since(start))
				if !ok || time.Now().After(budget) {
					break
				}
			}
			nst := xbench.SummarizeDelays(nDelays)
			t.Add(class, g.N(), st.Count, st.Max, st.P99, st.P50, nst.Max, nst.P99)
		}
	}
	t.Render(os.Stdout)
	fmt.Println("\nshape: index delays flat in n; naive delays grow with the gap between solutions.")
}

// runE7 measures Test against direct evaluation, for the plain Example-2
// query (cheap to test directly: one truncated BFS) and for a quantified
// query (direct evaluation loops the quantifier over the whole domain, so
// it grows linearly while the index stays flat).
func runE7(quick bool) {
	queries := []struct{ name, src string }{
		{"example2", benchQuery},
		{"quantified", "dist(x,y) > 2 & C0(y) & ~(exists z (dist(y,z) <= 2 & C1(z)))"},
	}
	t := xbench.NewTable("query", "class", "n", "index Test", "direct eval", "speedup")
	for _, qc := range queries {
		phi := fo.MustParse(qc.src)
		vars := []fo.Var{"x", "y"}
		for _, class := range []string{"grid", "bdeg"} {
			for _, n := range sweep(quick) {
				g := gen.Generate(gen.Class(class), n, gen.Options{Seed: 7, Colors: 2, ColorProb: 0.05})
				lq, err := core.Compile(phi, vars, core.CompileOptions{})
				if err != nil {
					panic(err)
				}
				e, err := core.Preprocess(g, lq, core.Options{Parallelism: parallelism})
				if err != nil {
					panic(err)
				}
				rng := rand.New(rand.NewSource(9))
				probes := 2000
				if qc.name == "quantified" {
					probes = 50 // the direct side is Θ(n) per test
				}
				tuples := make([][]int, probes)
				for i := range tuples {
					tuples[i] = []int{rng.Intn(g.N()), rng.Intn(g.N())}
				}
				iT := xbench.Time(func() {
					for _, a := range tuples {
						e.Test(a)
					}
				}) / time.Duration(probes)
				ev := fo.NewEvaluator(g)
				dT := xbench.Time(func() {
					for _, a := range tuples {
						ev.EvalTuple(phi, vars, a)
					}
				}) / time.Duration(probes)
				t.Add(qc.name, class, g.N(), iT, dT,
					float64(dT)/float64(max(int64(1), int64(iT))))
			}
		}
	}
	t.Render(os.Stdout)
	fmt.Println("\nshape: index Test flat in n for both queries; direct evaluation is competitive")
	fmt.Println("on the quantifier-free query but grows linearly once quantifiers appear.")
}

// runE8 measures the crossover: total time (including preprocessing) to
// produce the first K solutions, index vs naive streaming.
func runE8(quick bool) {
	n := 16000
	if quick {
		n = 4000
	}
	t := xbench.NewTable("class", "K", "index total", "naive total", "winner")
	for _, class := range []string{"grid", "btree"} {
		for _, K := range []int{1, 10, 100, 1000, 10000} {
			g, e, lq, pre := buildEngine(class, n, benchQuery, "x", "y")
			got := 0
			enumT := xbench.Time(func() {
				e.Enumerate(func([]int) bool {
					got++
					return got < K
				})
			})
			idxTotal := pre + enumT

			ne := naive.NewEnumerator(g, lq)
			naiveGot := 0
			naiveT := xbench.Time(func() {
				for naiveGot < K {
					if _, ok := ne.Next(); !ok {
						break
					}
					naiveGot++
				}
			})
			winner := "index"
			if naiveT < idxTotal {
				winner = "naive"
			}
			t.Add(class, K, idxTotal, naiveT, winner)
		}
	}
	t.Render(os.Stdout)
	fmt.Println("\nshape: naive wins for tiny K (no preprocessing); the index wins once K grows,")
	fmt.Println("and is the only option with constant delay guarantees.")
}

// runE12 compares pseudo-linear counting (inclusion–exclusion over
// distance types) against counting by full enumeration.
func runE12(quick bool) {
	t := xbench.NewTable("class", "n", "|q(G)|", "FastCount", "enumerate-count", "speedup")
	for _, class := range []string{"grid", "rtree", "bdeg"} {
		for _, n := range sweep(quick) {
			_, e, _, _ := buildEngine(class, n, benchQuery, "x", "y")
			var fast int
			fT := xbench.Time(func() {
				var ok bool
				fast, ok = e.FastCount()
				if !ok {
					panic("unsupported arity")
				}
			})
			if n > 20000 {
				// Enumeration of Θ(n·|blue|) answers is prohibitive; report
				// FastCount only.
				t.Add(class, n, fast, fT, "(skipped)", "")
				continue
			}
			var slow int
			sT := xbench.Time(func() { slow = e.Count() })
			if fast != slow {
				fmt.Printf("WARNING: FastCount %d != Count %d\n", fast, slow)
			}
			t.Add(class, n, fast, fT, sT, float64(sT)/float64(max(int64(1), int64(fT))))
		}
	}
	t.Render(os.Stdout)
	fmt.Println("\nshape: FastCount is pseudo-linear in n; enumeration pays Θ(|q(G)|), which is quadratic-order here.")
}

// runE10 exercises Lemma 2.2 end to end: a relational database is encoded
// as A′(D) and a translated join query is indexed and enumerated there;
// the baseline materializes the join by nested loops over the database.
func runE10(quick bool) {
	t := xbench.NewTable("domain", "tuples", "|A'(D)|", "encode+index", "enumerate", "nested-loop join")
	sizes := []int{500, 2000, 8000}
	if quick {
		sizes = []int{500, 2000}
	}
	for _, n := range sizes {
		db := repro.NewDatabase(n)
		db.AddRelation("Cites", 2)
		db.AddRelation("Old", 1)
		rng := rand.New(rand.NewSource(11))
		for p := 1; p < n; p++ {
			db.Insert("Cites", p, rng.Intn(p))
		}
		for p := 0; p < n; p++ {
			if rng.Float64() < 0.1 {
				db.Insert("Old", p)
			}
		}
		var encN int
		q := repro.MustParseQuery("Cites(x,y) & Old(y)", "x", "y")
		var ix *repro.DatabaseIndex
		encT := xbench.Time(func() {
			var err error
			ix, err = repro.BuildDatabaseIndex(db, q)
			if err != nil {
				panic(err)
			}
		})
		encN = n + 2*len(db.Tuples("Cites")) + len(db.Tuples("Old")) +
			len(db.Tuples("Cites")) + len(db.Tuples("Old"))
		cnt := 0
		enumT := xbench.Time(func() {
			ix.Enumerate(func([]int) bool { cnt++; return true })
		})
		nl := 0
		nlT := xbench.Time(func() {
			for _, tup := range db.Tuples("Cites") {
				if db.Holds("Old", []int{tup[1]}) {
					nl++
				}
			}
		})
		if nl != cnt {
			fmt.Printf("WARNING: index found %d solutions, nested loop %d\n", cnt, nl)
		}
		t.Add(n, len(db.Tuples("Cites"))+len(db.Tuples("Old")), encN, encT, enumT, nlT)
	}
	t.Render(os.Stdout)
	fmt.Println("\nshape: both are linear here (the join is trivially indexable); the encoding's")
	fmt.Println("value is generality — the same pipeline answers any FO query on the database.")
}
