package graph

import (
	"math/rand"
	"slices"
	"testing"
)

// samePaged checks p against model, a plain slice: Len, every At, Run over
// each page's entries, and Flat.
func samePaged(t *testing.T, what string, p *Paged[int32], model []int32) {
	t.Helper()
	if p.Len() != len(model) {
		t.Fatalf("%s: Len() = %d, want %d", what, p.Len(), len(model))
	}
	for i, x := range model {
		if p.At(i) != x {
			t.Fatalf("%s: At(%d) = %d, want %d", what, i, p.At(i), x)
		}
	}
	for lo := 0; lo < len(model); lo += pageLen {
		hi := min(lo+pageLen, len(model))
		if got := p.Run(lo, hi-lo); !slices.Equal(got, model[lo:hi]) {
			t.Fatalf("%s: Run(%d, %d) = %v, want %v", what, lo, hi-lo, got, model[lo:hi])
		}
	}
	if got := p.Flat(); !slices.Equal(got, model) {
		t.Fatalf("%s: Flat() = %v, want %v", what, got, model)
	}
}

// TestPagedVersions writes to random older versions of a paged array, as a
// server patching behind its head does: every version must keep equal a
// plain slice copied and written alike, and a version must share with the
// one it was made from every page it did not write, and no page it did.
func TestPagedVersions(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 30; trial++ {
		flat := make([]int32, rng.Intn(5*pageLen))
		for i := range flat {
			flat[i] = rng.Int31()
		}
		versions := []Paged[int32]{PagedOf(slices.Clone(flat))}
		models := [][]int32{flat}
		for step := 0; step < 40; step++ {
			from := rng.Intn(len(versions))
			base := &versions[from]
			model := slices.Clone(models[from])
			dirty := map[int]bool{}
			e := base.Edit()
			for k := rng.Intn(6); k > 0; k-- {
				x := rng.Int31()
				if len(model) > 0 && rng.Intn(4) > 0 {
					i := rng.Intn(len(model))
					e.Set(i, x)
					model[i] = x
					dirty[i/pageLen] = true
				} else {
					e.Append(x)
					model = append(model, x)
					dirty[(len(model)-1)/pageLen] = true
				}
			}
			p := e.Paged()
			samePaged(t, "new version", &p, model)
			for pi := range base.Pages() {
				if p.SharesPage(base, pi) == dirty[pi] {
					t.Fatalf("trial %d step %d: page %d of %d shared: %v, written: %v", trial, step, pi, base.Pages(), !dirty[pi], dirty[pi])
				}
			}
			versions, models = append(versions, p), append(models, model)
		}
		for i := range versions {
			samePaged(t, "older version", &versions[i], models[i])
		}
	}
}

// TestPagedOfViews: a built array's full pages are its flat array — the
// last one too when the array is PageAligned — and an edit that writes
// nothing is the array it started from.
func TestPagedOfViews(t *testing.T) {
	flat := PageAligned[int32](3*pageLen + 7)
	p := PagedOf(flat)
	for pi := range 4 {
		if &p.page(pi)[0] != &flat[pi*pageLen] {
			t.Fatalf("page %d is not a view of the flat array", pi)
		}
	}
	if short := PagedOf(make([]int32, 3*pageLen+7)); short.At(3*pageLen+6) != 0 || short.page(3)[pageLen-1] != 0 {
		t.Fatal("the padded last page of an unaligned array is not zero past the end")
	}
	if &p.Flat()[0] != &flat[0] {
		t.Fatal("Flat() of a built array is not the array it views")
	}
	e := p.Edit()
	same := e.Paged()
	if &same.Flat()[0] != &flat[0] || !same.SharesPage(&p, 3) {
		t.Fatal("an edit that writes nothing copied something")
	}
}
