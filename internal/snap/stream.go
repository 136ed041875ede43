package snap

import "fmt"

// i32w builds an int32 stream: scalars and length-prefixed slices. The
// stream is the interior encoding of the structured sections ("graph",
// "cover", "dist", "balls", "clauses"); the container only sees one flat
// []int32. Beside it runs the int8 column of "dist.d8", which only
// encodeDist feeds.
//
// A stream is made by running its encode function twice (newStream): the
// first run, s still nil, only adds up the lengths it is about to write,
// the second fills slices of exactly that size — one allocation and one
// copy a stream, and the layout is written down once.
type i32w struct {
	s      []int32
	d8     []int8
	n, nd8 int
}

// newStream returns encode's stream (and d8 column, nil when it has none).
func newStream(encode func(w *i32w)) *i32w {
	w := &i32w{}
	encode(w)
	w.s, w.d8 = make([]int32, 0, w.n), make([]int8, 0, w.nd8)
	encode(w)
	return w
}

func (w *i32w) put(x int32) {
	if w.s == nil {
		w.n++
		return
	}
	w.s = append(w.s, x)
}

func (w *i32w) putInt(x int) { w.put(clamp32(x)) }

// putSlice writes a length prefix followed by the elements.
func (w *i32w) putSlice(v []int32) {
	if w.s == nil {
		w.n += 1 + len(v)
		return
	}
	w.s = append(append(w.s, int32(len(v))), v...)
}

// putD8 appends to the int8 column.
func (w *i32w) putD8(v []int8) {
	if w.s == nil {
		w.nd8 += len(v)
		return
	}
	w.d8 = append(w.d8, v...)
}

// clamp32 narrows an int to int32, saturating instead of wrapping. Only
// statistics counters can realistically exceed the int32 range; the
// structural values are all bounded by the graph size.
func clamp32(x int) int32 {
	if x > 1<<31-1 {
		return 1<<31 - 1
	}
	if x < -(1 << 31) {
		return -(1 << 31)
	}
	return int32(x)
}

// i32r consumes an int32 stream with bounds checking: every read is
// validated against the remaining length, and slice reads return
// subslices of the already-materialized section — a hostile length can
// never trigger a large allocation.
type i32r struct {
	name string // section name, for error messages
	s    []int32
	pos  int
}

func (r *i32r) get() (int32, error) {
	if r.pos >= len(r.s) {
		return 0, fmt.Errorf("%w: section %q ends early at word %d", ErrCorrupt, r.name, r.pos)
	}
	x := r.s[r.pos]
	r.pos++
	return x, nil
}

func (r *i32r) getInt() (int, error) {
	x, err := r.get()
	return int(x), err
}

// getSlice reads a length-prefixed slice, aliasing the stream.
func (r *i32r) getSlice() ([]int32, error) {
	n, err := r.getInt()
	if err != nil {
		return nil, err
	}
	if n < 0 || n > len(r.s)-r.pos {
		return nil, fmt.Errorf("%w: section %q claims a %d-word slice with %d words left", ErrCorrupt, r.name, n, len(r.s)-r.pos)
	}
	v := r.s[r.pos : r.pos+n]
	r.pos += n
	return v, nil
}

// finish errors unless the stream was consumed exactly.
func (r *i32r) finish() error {
	if r.pos != len(r.s) {
		return fmt.Errorf("%w: section %q has %d words of trailing data", ErrCorrupt, r.name, len(r.s)-r.pos)
	}
	return nil
}

// i8r consumes an int8 column with the same bounds discipline.
type i8r struct {
	name string
	s    []int8
	pos  int
}

func (r *i8r) take(n int) ([]int8, error) {
	if n < 0 || n > len(r.s)-r.pos {
		return nil, fmt.Errorf("%w: section %q claims %d bytes with %d left", ErrCorrupt, r.name, n, len(r.s)-r.pos)
	}
	v := r.s[r.pos : r.pos+n]
	r.pos += n
	return v, nil
}

func (r *i8r) finish() error {
	if r.pos != len(r.s) {
		return fmt.Errorf("%w: section %q has %d bytes of trailing data", ErrCorrupt, r.name, len(r.s)-r.pos)
	}
	return nil
}
