package skip

import (
	"slices"
	"sync"
	"testing"

	"repro/internal/cover"
	"repro/internal/gen"
	"repro/internal/graph"
)

// restrictionLists returns the lists the exhaustive test sweeps: empty, one
// vertex, a strict subset that stops well before the last vertex (so that
// queries start past its last element), every third vertex, and all of V.
func restrictionLists(n int) map[string][]graph.V {
	lists := map[string][]graph.V{"empty": nil, "single": {n / 2}, "all": nil}
	for v := 0; v < n; v++ {
		lists["all"] = append(lists["all"], v)
		if v%3 == 1 {
			lists["third"] = append(lists["third"], v)
		}
		if v < n/2 && v%2 == 0 {
			lists["head"] = append(lists["head"], v)
		}
	}
	return lists
}

// forEachBagTuple calls f with every tuple of at most k bag ids, repeats
// and every order included.
func forEachBagTuple(nbags, k int, f func(S []int)) {
	var rec func(S []int)
	rec = func(S []int) {
		f(S)
		if len(S) == k {
			return
		}
		for x := 0; x < nbags; x++ {
			rec(append(S, x))
		}
	}
	rec(make([]int, 0, k))
}

// TestSkipExhaustive compares Query with the definition for every start b
// (two past the last vertex included), every bag tuple of size ≤ k and k
// up to 3, over lists that are strict subsets of V — and checks that the
// table holds rows for the vertices of L and for no other. The star is one
// bag, so every family is one singleton; on sparserandom, as on the grid,
// sets of SC(b) are reached from more than one parent.
func TestSkipExhaustive(t *testing.T) {
	for _, fx := range []struct {
		class gen.Class
		n     int
	}{{gen.Grid, 49}, {gen.RandomTree, 90}, {gen.Path, 24}, {gen.Star, 30}, {gen.SparseRandom, 49}} {
		g := gen.Generate(fx.class, fx.n, gen.Options{Seed: 5})
		cov := cover.Compute(g, 2, 1)
		n := g.N()
		t.Logf("%s: n=%d, %d bags, degree %d", fx.class, n, cov.NumBags(), cov.Degree())
		for name, L := range restrictionLists(n) {
			for k := 1; k <= 3; k++ {
				p := New(g, cov, k, L)
				if !slices.Equal(p.L(), L) {
					t.Fatalf("%s/%s k=%d: L() = %v, want %v", fx.class, name, k, p.L(), L)
				}
				for b := 0; b < n; b++ {
					_, in := slices.BinarySearch(L, b)
					if rows := p.off[b+1] - p.off[b]; (rows > 0) != (in && len(cov.KernelsOf(b)) > 0) {
						t.Fatalf("%s/%s k=%d: vertex %d (in L: %v) has %d rows", fx.class, name, k, b, in, rows)
					}
				}
				if int(p.off[n]) != p.Size() || len(p.rows) != p.Size()*(k+1) {
					t.Fatalf("%s/%s k=%d: Size %d, offsets end at %d, %d words", fx.class, name, k, p.Size(), p.off[n], len(p.rows))
				}
				forEachBagTuple(cov.NumBags(), k, func(S []int) {
					for b := 0; b < n+2; b++ {
						if got, want := p.Query(b, S), bruteSkip(cov, L, n, b, S); got != want {
							t.Fatalf("%s/%s k=%d: SKIP(%d, %v) = %d, want %d", fx.class, name, k, b, S, got, want)
						}
					}
				})
			}
		}
	}
}

// TestSkipTableByDefinition builds SC(b) for every b ∈ L straight from
// Lemma 5.8's two rules — the singletons {X} with b ∈ K(X), and S ∪ {Y}
// while |S| < k and SKIP(b+1, S) ∈ K(Y) — with the values of the definition,
// and compares the sorted rows with the table word for word.
func TestSkipTableByDefinition(t *testing.T) {
	for _, class := range []gen.Class{gen.Grid, gen.RandomTree, gen.Path, gen.Star, gen.PartialKTree, gen.SparseRandom} {
		g := gen.Generate(class, 60, gen.Options{Seed: 4})
		n := g.N()
		for p := 1; p <= 2; p++ {
			cov := cover.Compute(g, 2, p)
			for name, L := range restrictionLists(n) {
				for k := 1; k <= 3; k++ {
					tab := New(g, cov, k, L)
					var want []int32
					for b := 0; b < n; b++ {
						if _, in := slices.BinarySearch(L, b); in {
							want = appendFamily(want, cov, L, n, k, b)
						}
						if tab.off[b+1] != int32(len(want)/(k+1)) {
							t.Fatalf("%s p=%d %s k=%d: rows of vertex %d end at %d, want %d", class, p, name, k, b, tab.off[b+1], len(want)/(k+1))
						}
					}
					if !slices.Equal(tab.rows, want) {
						t.Fatalf("%s p=%d %s k=%d: table differs from the definition (%d words, want %d)", class, p, name, k, len(tab.rows), len(want))
					}
				}
			}
		}
	}
}

// appendFamily appends the rows of SC(b), sorted by their sets: each set
// padded to k words with -1, then SKIP(b+1, S) by bruteSkip.
func appendFamily(rows []int32, cov *cover.Cover, L []graph.V, n, k int, b graph.V) []int32 {
	seen := map[[MaxSetSize]int32]bool{}
	var fam [][MaxSetSize]int32
	add := func(s [MaxSetSize]int32) {
		slices.Sort(s[:])
		if s = padBack(s); !seen[s] {
			seen[s] = true
			fam = append(fam, s)
		}
	}
	for x := 0; x < cov.NumBags(); x++ {
		if cov.InKernel(x, b) {
			add([MaxSetSize]int32{int32(x), -1, -1, -1})
		}
	}
	var vals []graph.V
	for i := 0; i < len(fam); i++ {
		var S []int
		for _, x := range fam[i] {
			if x >= 0 {
				S = append(S, int(x))
			}
		}
		v := bruteSkip(cov, L, n, b+1, S)
		vals = append(vals, v)
		if v == None || len(S) == k {
			continue
		}
		for y := 0; y < cov.NumBags(); y++ {
			if s := fam[i]; cov.InKernel(y, v) && !slices.Contains(s[:], int32(y)) {
				s[len(S)] = int32(y)
				add(s)
			}
		}
	}
	order := make([]int, len(fam))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(i, j int) int { return slices.Compare(fam[i][:], fam[j][:]) })
	for _, i := range order {
		rows = append(append(rows, fam[i][:k]...), int32(vals[i]))
	}
	return rows
}

// padBack moves the -1 words of a sorted set behind its bags, where the
// rows have them.
func padBack(s [MaxSetSize]int32) [MaxSetSize]int32 {
	out := [MaxSetSize]int32{-1, -1, -1, -1}
	i := 0
	for _, x := range s {
		if x >= 0 {
			out[i] = x
			i++
		}
	}
	return out
}

// TestSharedBaseOverlays: two components overlay one shared base at the
// same time, each with its own chain of mutations, while a third reader
// keeps querying the base. Every overlay stays exact, the base keeps
// answering for its own version, and not a word of it changes. Run with
// -race.
func TestSharedBaseOverlays(t *testing.T) {
	g, cov, L := buildFixture(t, gen.Grid, 300, 2, 31)
	const k = 2
	base := New(g, cov, k, L)
	before := table{
		nextGeqL: slices.Clone(base.nextGeqL),
		off:      slices.Clone(base.off),
		rows:     slices.Clone(base.rows),
	}
	check := func(p *Pointers, cov *cover.Cover, L []graph.V, seed int64) {
		rng := newRand(seed)
		for q := 0; q < 300; q++ {
			b := rng.Intn(g.N())
			S := []int{rng.Intn(cov.NumBags()), rng.Intn(cov.NumBags())}[:rng.Intn(k+1)]
			if got, want := p.Query(b, S), bruteSkip(cov, L, g.N(), b, S); got != want {
				t.Errorf("seed %d: SKIP(%d, %v) = %d, want %d (delta %d)", seed, b, S, got, want, p.DeltaLen())
				return
			}
		}
	}
	// The mutation chains are drawn here, on the test's goroutine; the
	// overlays are made and queried concurrently.
	type version struct {
		cov   *cover.Cover
		L     []graph.V
		delta []graph.V
	}
	var wg sync.WaitGroup
	for comp := int64(1); comp <= 2; comp++ {
		rng := newRand(comp * 101)
		var chain []version
		for g, cov, L := g, cov, L; len(chain) < 3; {
			gNew, covNew, newL, delta, ok := mutateFixture(t, rng, g, cov, L)
			if ok {
				chain = append(chain, version{covNew, newL, delta})
				g, cov, L = gNew, covNew, newL
			}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := base
			for gen, v := range chain {
				p = p.WithDelta(v.cov, v.L, v.delta)
				if !p.SharesTable(base) {
					t.Errorf("component %d generation %d left the shared base", comp, gen)
				}
				check(p, v.cov, v.L, comp*10+int64(gen))
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		check(base, cov, L, 7)
	}()
	wg.Wait()
	if base.DeltaLen() != 0 || !slices.Equal(base.nextGeqL, before.nextGeqL) ||
		!slices.Equal(base.off, before.off) || !slices.Equal(base.rows, before.rows) {
		t.Fatal("overlays wrote to the shared base")
	}
	check(base, cov, L, 8)
}

// TestFromPartsAdopts: Parts hands out the table itself and FromParts takes
// it over as it is — no copy either way — after checking every word the
// chase relies on.
func TestFromPartsAdopts(t *testing.T) {
	g, cov, L := buildFixture(t, gen.Grid, 120, 2, 9)
	const k = 2
	p := New(g, cov, k, L)
	parts := p.Parts()
	if &parts.TableRow[0] != &p.rows[0] || &parts.TableOff[0] != &p.off[0] {
		t.Fatal("Parts copied the table")
	}
	q, err := FromParts(cov, L, parts)
	if err != nil {
		t.Fatal(err)
	}
	if &q.rows[0] != &parts.TableRow[0] || &q.off[0] != &parts.TableOff[0] || q.Size() != p.Size() {
		t.Fatal("FromParts did not adopt the table")
	}
	forEachBagTuple(cov.NumBags(), 1, func(S []int) {
		for b := 0; b < g.N(); b++ {
			if got, want := q.Query(b, S), p.Query(b, S); got != want {
				t.Fatalf("restored SKIP(%d, %v) = %d, want %d", b, S, got, want)
			}
		}
	})

	// A vertex with at least two rows, the first a singleton: every check
	// below corrupts one of them.
	v := slices.IndexFunc(L, func(v graph.V) bool { return p.off[v+1]-p.off[v] >= 2 })
	at := int(p.off[L[v]]) * (k + 1)
	for name, corrupt := range map[string]func(pt *Parts){
		"set size":         func(pt *Parts) { pt.K = MaxSetSize + 1 },
		"offsets start":    func(pt *Parts) { pt.TableOff[0] = 1 },
		"offsets order":    func(pt *Parts) { pt.TableOff[3], pt.TableOff[4] = pt.TableOff[4]+1, pt.TableOff[3] },
		"word count":       func(pt *Parts) { pt.TableRow = pt.TableRow[:len(pt.TableRow)-1] },
		"bag range":        func(pt *Parts) { pt.TableRow[at] = int32(cov.NumBags()) },
		"padding word":     func(pt *Parts) { pt.TableRow[at+1] = -2 },
		"empty set":        func(pt *Parts) { pt.TableRow[at] = -1 },
		"gap in the set":   func(pt *Parts) { pt.TableRow[at], pt.TableRow[at+1] = -1, 0 },
		"unsorted set":     func(pt *Parts) { pt.TableRow[at+1] = pt.TableRow[at] },
		"value range":      func(pt *Parts) { pt.TableRow[at+k] = int32(g.N()) },
		"value below null": func(pt *Parts) { pt.TableRow[at+k] = -2 },
		"row order": func(pt *Parts) {
			for i := 0; i <= k; i++ {
				pt.TableRow[at+i], pt.TableRow[at+k+1+i] = pt.TableRow[at+k+1+i], pt.TableRow[at+i]
			}
		},
		"duplicate row": func(pt *Parts) { copy(pt.TableRow[at+k+1:at+2*(k+1)], pt.TableRow[at:at+k+1]) },
	} {
		bad := Parts{K: k, TableOff: slices.Clone(parts.TableOff), TableRow: slices.Clone(parts.TableRow)}
		corrupt(&bad)
		if _, err := FromParts(cov, L, bad); err == nil {
			t.Errorf("%s: corrupted table accepted", name)
		}
	}
	if _, err := FromParts(cov, []int{g.N()}, parts); err == nil {
		t.Error("restriction list outside the vertex range accepted")
	}
}

// L returns the sorted restriction list the table was built over.
func (p *Pointers) L() []graph.V {
	var out []graph.V
	for v, c := range p.nextGeqL {
		if c == int32(v) {
			out = append(out, v)
		}
	}
	return out
}
