package graph

import (
	"math/bits"
	"slices"
)

// pageBits is how many vertices one page of a RankSet's words covers.
const pageBits = 64 * pageLen

// RankSet is an immutable set of vertices of [0, n) that answers "is v a
// member" and "how many members lie below x" in constant time: a bitset,
// and beside each word of it the members in the earlier words of its page
// (a uint16: a page covers pageBits vertices) and beside each page the
// members in the earlier pages. Rank(x) is then one page count, one word
// count and the popcount of a masked word — where a sorted list of the
// members holds the first one ≥ x — and the set costs n/8 + n/32 bytes
// and four a page. Words and counts are Paged, so a version made by Edit
// shares with the one it came from every page it did not flip a bit in.
// The zero value is the empty set over no vertices.
type RankSet struct {
	n     int
	count int
	words Paged[uint64] // bit v%64 of word v/64: v is a member
	below Paged[uint16] // per word: the members in the earlier words of its page
	pages []int32       // per page of words: the members in the earlier pages
}

// RankSetOf returns the set of the vertices in members, each in [0, n), in
// any order and repeated or not.
func RankSetOf(n int, members []V) RankSet {
	words := PageAligned[uint64]((n + 63) / 64)
	for _, v := range members {
		words[v/64] |= 1 << (uint(v) % 64)
	}
	return RankSetOfWords(n, words)
}

// RankSetOfWords returns the set whose member v is bit v%64 of words[v/64]:
// (n+63)/64 words, no bit at or above n set, which the set views from then
// on — they must not be written afterwards.
func RankSetOfWords(n int, words []uint64) RankSet {
	s := RankSet{n: n, pages: make([]int32, (len(words)+pageLen-1)/pageLen)}
	below := PageAligned[uint16](len(words))
	for w, x := range words {
		if w%pageLen == 0 {
			s.pages[w/pageLen] = int32(s.count)
		}
		below[w] = uint16(s.count - int(s.pages[w/pageLen]))
		s.count += bits.OnesCount64(x)
	}
	s.words, s.below = PagedOf(words), PagedOf(below)
	return s
}

// Len returns n, the size of the universe.
func (s *RankSet) Len() int { return s.n }

// Count returns the number of members.
func (s *RankSet) Count() int { return s.count }

// Has reports whether v, in [0, n), is a member.
//
//fod:hotpath
func (s *RankSet) Has(v V) bool {
	return s.words.At(int(uint(v)/64))>>(uint(v)%64)&1 != 0
}

// Rank returns the number of members below x, for any x: the index of the
// first member ≥ x in the sorted list of the members, its length if there
// is none.
//
//fod:hotpath
func (s *RankSet) Rank(x V) int {
	if uint(x) >= uint(s.n) {
		return s.rankOutside(x)
	}
	w := int(uint(x) / 64)
	return int(s.pages[uint(w)/pageLen]) + int(s.below.At(w)) + bits.OnesCount64(s.words.At(w)&(1<<(uint(x)%64)-1))
}

// rankOutside is Rank of an x outside [0, n).
func (s *RankSet) rankOutside(x V) int {
	if x < 0 {
		return 0
	}
	return s.count
}

// AppendMembers appends the members to dst in ascending order.
func (s *RankSet) AppendMembers(dst []V) []V {
	for w := range s.words.Len() {
		for x := s.words.At(w); x != 0; x &= x - 1 {
			dst = append(dst, w*64+bits.TrailingZeros64(x))
		}
	}
	return dst
}

// Pages returns the number of pages of words, each of pageBits vertices
// and with a page of word counts beside it.
func (s *RankSet) Pages() int { return s.words.Pages() }

// PageOf returns the index of the page that holds vertex v.
func (s *RankSet) PageOf(v V) int { return v / pageBits }

// SharesPage reports whether page pi of s, its words and its word counts,
// is page pi of q: the same storage, as two versions of one set share what
// no flip dirtied.
func (s *RankSet) SharesPage(q *RankSet, pi int) bool {
	return s.words.SharesPage(&q.words, pi) && s.below.SharesPage(&q.below, pi)
}

// RankSetEdit derives a new version of a set from an old one, which stays
// as it is: a flip copies the page of words it lands in, the page of word
// counts beside it and the page counts, and shares everything else.
type RankSetEdit struct {
	out      RankSet
	words    PagedEdit[uint64]
	below    PagedEdit[uint16]
	ownPages bool
}

// Edit starts a new version of s.
func (s *RankSet) Edit() RankSetEdit {
	return RankSetEdit{out: *s, words: s.words.Edit(), below: s.below.Edit()}
}

// Flip adds v, in [0, n), to the set if it is not a member and removes it
// if it is; the counts of every later word of its page and of every later
// page move with it.
func (e *RankSetEdit) Flip(v V) {
	w := int(uint(v) / 64)
	x := e.words.At(w) ^ 1<<(uint(v)%64)
	e.words.Set(w, x)
	d := -1
	if x>>(uint(v)%64)&1 != 0 {
		d = 1
	}
	if end := min((w/pageLen+1)*pageLen, e.below.Len()); w+1 < end {
		run := e.below.Run(w+1, end-w-1)
		for i := range run {
			run[i] += uint16(d)
		}
	}
	if !e.ownPages {
		e.out.pages, e.ownPages = slices.Clone(e.out.pages), true
	}
	for pi := w/pageLen + 1; pi < len(e.out.pages); pi++ {
		e.out.pages[pi] += int32(d)
	}
	e.out.count += d
}

// RankSet returns the version made; the edit must not be used afterwards.
func (e *RankSetEdit) RankSet() RankSet {
	e.out.words, e.out.below = e.words.Paged(), e.below.Paged()
	return e.out
}
