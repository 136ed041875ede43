package graph

import (
	"slices"
	"unsafe"
)

// pageLen is how many consecutive entries share one page of a Paged. A write
// copies the pages it dirties and the page table, a pointer a page: at 256
// a dirty page of slice headers is 6 KB, one of bools 256 bytes, and the
// table of a million entries 32 KB.
const pageLen = 256

// Paged is an immutable array held in pages of pageLen consecutive entries:
// the per-vertex and per-bag arrays of an index version (colour words,
// starter bitmaps, bag assignments, row spines). PagedOf makes the pages
// views of one flat array, so a build and a snapshot restore copy nothing;
// an Edit copies a page on its first write to it and shares every other
// page with the array it started from, so the versions of an index pay for
// the pages a write dirtied and not for n. The zero value is the array of
// no entries.
type Paged[T any] struct {
	n     int
	pages []*[pageLen]T
	// The array every page views; nil once an Edit has written a page.
	flat []T
}

// PagedOf returns the array whose entries are flat's, viewing flat: it must
// not be written afterwards. A last page that flat's capacity fills is a
// view too (PageAligned makes such arrays); otherwise it is a padded copy.
// Entries past the end are never read.
func PagedOf[T any](flat []T) Paged[T] {
	n := len(flat)
	p := Paged[T]{n: n, flat: flat, pages: make([]*[pageLen]T, (n+pageLen-1)/pageLen)}
	for i := range p.pages {
		lo := i * pageLen
		if lo+pageLen <= cap(flat) {
			p.pages[i] = (*[pageLen]T)(flat[lo : lo+pageLen])
			continue
		}
		pg := new([pageLen]T)
		copy(pg[:], flat[lo:])
		p.pages[i] = pg
	}
	return p
}

// PageAligned returns n zero entries in an array whose capacity fills its
// last page, for PagedOf to view whole.
func PageAligned[T any](n int) []T {
	return make([]T, n, (n+pageLen-1)/pageLen*pageLen)
}

// Len returns the number of entries.
func (p *Paged[T]) Len() int { return p.n }

// At returns entry i, for 0 ≤ i < Len(). An array no Edit has written is
// read straight off the flat array its pages view, as a slice is: the
// page table costs a load more, which the answer paths of a built or
// restored index do not pay.
//
//fod:hotpath
func (p *Paged[T]) At(i int) T {
	if p.flat != nil {
		return p.flat[i]
	}
	return p.pages[uint(i)/pageLen][uint(i)%pageLen]
}

// Run returns entries [i, i+k) as a view, not to be modified; they must lie
// in one page. It is how the colour matrix hands out the words of a vertex.
func (p *Paged[T]) Run(i, k int) []T {
	o := uint(i) % pageLen
	return p.pages[uint(i)/pageLen][o : o+uint(k)]
}

// Flat returns the entries as one array (read-only): the array the pages
// view when no page was ever written, a fresh assembly otherwise. It is
// what a snapshot writes.
func (p *Paged[T]) Flat() []T {
	if p.flat != nil || p.n == 0 {
		return p.flat
	}
	out := make([]T, 0, p.n)
	for i, pg := range p.pages {
		out = append(out, pg[:min(pageLen, p.n-i*pageLen)]...)
	}
	return out
}

// Bytes returns what p holds: its pages, padding included, and the page
// table. A page shared with another array counts in full.
func (p *Paged[T]) Bytes() int {
	var x T
	return len(p.pages) * (pageLen*int(unsafe.Sizeof(x)) + int(unsafe.Sizeof(&x)))
}

// Pages returns the number of pages.
func (p *Paged[T]) Pages() int { return len(p.pages) }

// PageOf returns the index of the page that holds entry i.
func (p *Paged[T]) PageOf(i int) int { return i / pageLen }

// SharesPage reports whether page pi of p is page pi of q: the same
// storage, as two versions of one array share what no write dirtied.
func (p *Paged[T]) SharesPage(q *Paged[T], pi int) bool {
	return pi < len(p.pages) && pi < len(q.pages) && p.pages[pi] == q.pages[pi]
}

// PagedEdit derives a new version of an array from an old one: the first
// write to a page of the old version copies it, later writes go to the
// copy. Making one costs nothing; the first write copies the page table.
type PagedEdit[T any] struct {
	base []*[pageLen]T // the old version's pages, never written
	out  Paged[T]
	own  bool // out.pages is a table of its own
}

// Edit starts a new version of p; p stays as it is.
func (p *Paged[T]) Edit() PagedEdit[T] { return PagedEdit[T]{base: p.pages, out: *p} }

// page returns the page of entry i, a copy of the old version's on the
// first write to it.
func (e *PagedEdit[T]) page(i int) *[pageLen]T {
	e.ownTable()
	pi := i / pageLen
	if pi < len(e.base) && e.out.pages[pi] == e.base[pi] {
		pg := new([pageLen]T)
		*pg = *e.base[pi]
		e.out.pages[pi] = pg
	}
	return e.out.pages[pi]
}

// ownTable gives the version being made a page table of its own.
func (e *PagedEdit[T]) ownTable() {
	if !e.own {
		e.out.pages, e.out.flat, e.own = slices.Clone(e.out.pages), nil, true
	}
}

// Len returns the number of entries of the version being made.
func (e *PagedEdit[T]) Len() int { return e.out.n }

// At returns entry i of the version being made.
func (e *PagedEdit[T]) At(i int) T { return e.out.At(i) }

// Set writes entry i.
func (e *PagedEdit[T]) Set(i int, x T) { e.page(i)[i%pageLen] = x }

// Run returns entries [i, i+k), which must lie in one page, to be written.
func (e *PagedEdit[T]) Run(i, k int) []T {
	o := i % pageLen
	return e.page(i)[o : o+k]
}

// Append adds x as entry Len().
func (e *PagedEdit[T]) Append(x T) {
	i := e.out.n
	if i%pageLen == 0 {
		e.ownTable()
		e.out.pages = append(e.out.pages, new([pageLen]T))
	}
	e.out.n++
	e.Set(i, x)
}

// Paged returns the version made; the edit must not be used afterwards.
func (e *PagedEdit[T]) Paged() Paged[T] { return e.out }
