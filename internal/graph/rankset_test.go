package graph

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// sameRankSet checks s against model, a membership slice: Len, Count, Has
// of every vertex, Rank of every x in [−1, n+1] against sort.Search over
// the sorted members, and AppendMembers.
func sameRankSet(t *testing.T, what string, s *RankSet, model []bool) {
	t.Helper()
	var list []V
	for v, in := range model {
		if in {
			list = append(list, v)
		}
	}
	if s.Len() != len(model) || s.Count() != len(list) {
		t.Fatalf("%s: Len, Count = %d, %d, want %d, %d", what, s.Len(), s.Count(), len(model), len(list))
	}
	for v, in := range model {
		if s.Has(v) != in {
			t.Fatalf("%s: Has(%d) = %v, want %v", what, v, !in, in)
		}
	}
	for x := -1; x <= len(model)+1; x++ {
		if got, want := s.Rank(x), sort.Search(len(list), func(i int) bool { return list[i] >= x }); got != want {
			t.Fatalf("%s: Rank(%d) = %d, want %d", what, x, got, want)
		}
	}
	if got := s.AppendMembers(nil); !slices.Equal(got, list) {
		t.Fatalf("%s: AppendMembers = %v, want %v", what, got, list)
	}
}

// TestRankSetVersions flips vertices of random older versions of random
// sets — sizes around the word and page boundaries, densities from empty
// to full — and checks every version against a plain membership slice
// flipped alike: the word counts and page counts a flip moves must stay
// exact in the version made and untouched in the one it came from.
func TestRankSetVersions(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sizes := []int{0, 1, 63, 64, 65, pageBits - 1, pageBits, pageBits + 1, 3*pageBits + 77}
	for trial := 0; trial < 24; trial++ {
		n := sizes[trial%len(sizes)]
		density := []float64{0, 0.01, 0.5, 1}[trial%4]
		model := make([]bool, n)
		var members []V
		for v := range model {
			if rng.Float64() < density {
				model[v] = true
				members = append(members, v, v) // repeated and, below, shuffled
			}
		}
		rng.Shuffle(len(members), func(i, j int) { members[i], members[j] = members[j], members[i] })
		versions, models := []RankSet{RankSetOf(n, members)}, [][]bool{model}
		sameRankSet(t, "built", &versions[0], model)
		for step := 0; step < 12 && n > 0; step++ {
			from := rng.Intn(len(versions))
			m := slices.Clone(models[from])
			e := versions[from].Edit()
			for k := 1 + rng.Intn(5); k > 0; k-- {
				v := rng.Intn(n)
				if rng.Intn(3) == 0 {
					v = n - 1 - rng.Intn(min(n, 70)) // near the end: the last, partial page
				}
				e.Flip(v)
				m[v] = !m[v]
			}
			versions, models = append(versions, e.RankSet()), append(models, m)
		}
		for i := range versions {
			sameRankSet(t, "version", &versions[i], models[i])
		}
	}
}

// TestRankSetEditSharesCleanPages: a version made by flipping vertices
// shares with its base every page of words and of word counts that holds
// none of them, and no page that holds one; the base reads as before.
func TestRankSetEditSharesCleanPages(t *testing.T) {
	n := 5*pageBits + 300
	rng := rand.New(rand.NewSource(2))
	var members []V
	for v := range n {
		if rng.Intn(3) == 0 {
			members = append(members, v)
		}
	}
	base := RankSetOf(n, members)
	before := slices.Clone(base.AppendMembers(nil))
	flips := []V{3, 2*pageBits + 64, 2*pageBits + 65, n - 100}
	dirty := map[int]bool{}
	e := base.Edit()
	for _, v := range flips {
		e.Flip(v)
		dirty[v/pageBits] = true
	}
	s := e.RankSet()
	for pi := range base.words.Pages() {
		if s.words.SharesPage(&base.words, pi) == dirty[pi] || s.below.SharesPage(&base.below, pi) == dirty[pi] {
			t.Fatalf("page %d: words shared %v, counts shared %v, flipped %v",
				pi, s.words.SharesPage(&base.words, pi), s.below.SharesPage(&base.below, pi), dirty[pi])
		}
	}
	if !slices.Equal(base.AppendMembers(nil), before) {
		t.Fatal("an edit changed the set it started from")
	}
	if got, want := s.Count(), base.Count(); got == want {
		t.Fatalf("Count after four flips = %d, the base's", got)
	}
}

// TestPagedShortArray: an array shorter than a page holds its entries and
// nothing more — no padded page — until an edit writes it, and the edit
// copies that one page and leaves the array as it was.
func TestPagedShortArray(t *testing.T) {
	flat := PageAligned[uint64](3)
	if cap(flat) != 3 {
		t.Fatalf("PageAligned(3) has capacity %d", cap(flat))
	}
	flat[2] = 9
	p := PagedOf(flat)
	if p.Bytes() != 24 || p.Pages() != 1 || &p.Run(0, 3)[0] != &flat[0] {
		t.Fatalf("a 3-word array holds %d bytes in %d pages", p.Bytes(), p.Pages())
	}
	e := p.Edit()
	e.Set(0, 7)
	q := e.Paged()
	samePaged64(t, &q, []uint64{7, 0, 9})
	samePaged64(t, &p, []uint64{0, 0, 9})
	if q.SharesPage(&p, 0) {
		t.Fatal("the written page is shared")
	}
}

func samePaged64(t *testing.T, p *Paged[uint64], model []uint64) {
	t.Helper()
	if !slices.Equal(p.Flat(), model) || !slices.Equal(p.Run(0, len(model)), model) {
		t.Fatalf("Flat %v, Run %v, want %v", p.Flat(), p.Run(0, len(model)), model)
	}
}
