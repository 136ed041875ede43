package graph

import (
	"cmp"
	"slices"
	"unsafe"
)

// rowsPerBlock is how many consecutive rows share one block of a Rows. A
// write copies the blocks it dirtied: small enough that a dirty block is a
// few KB of ball rows, large enough that the block headers (32 bytes each)
// cost half a byte a row.
const rowsPerBlock = 64

// Rows is an immutable store of n rows of cells — adjacency lists, ball
// rows, inverted lists — held in blocks of rowsPerBlock consecutive rows.
// FromFlat makes the blocks views of one CSR pair, so a build and a
// snapshot restore copy nothing; Patch returns a store that shares every
// block without a replaced row with its receiver, so the versions of an
// index pay for the rows a write touched and not for n. The zero value is
// the store of no rows.
type Rows[T any] struct {
	n      int
	cells  int // Σ row lengths
	blocks []rowBlock[T]
	// The CSR pair every block views; nil once a Patch has replaced a row.
	off  []int32
	flat []T
}

// rowBlock holds rows [64b, 64b+64): row i is adj[off[i]:off[i+1]]. Under
// FromFlat off points into the caller's offsets and adj is the caller's
// whole array; a block Patch rebuilt owns both, offsets from 0.
type rowBlock[T any] struct {
	off *[rowsPerBlock + 1]int32
	adj []T
}

// FromFlat returns the store whose row v is adj[off[v]:off[v+1]], viewing
// both arrays: they must not be written afterwards. off must hold n+1
// non-decreasing offsets from 0 to len(adj) — callers restoring a snapshot
// validate that first.
func FromFlat[T any](off []int32, adj []T) Rows[T] {
	n := len(off) - 1
	r := Rows[T]{n: n, cells: len(adj), off: off, flat: adj}
	r.blocks = make([]rowBlock[T], (n+rowsPerBlock-1)/rowsPerBlock)
	for b := range r.blocks {
		lo := b * rowsPerBlock
		if lo+rowsPerBlock <= n {
			r.blocks[b] = rowBlock[T]{off: (*[rowsPerBlock + 1]int32)(off[lo:]), adj: adj}
			continue
		}
		// The last block of an n that is no multiple of the block size has
		// fewer offsets than a header points to: a padded copy, whose rows
		// past n are empty.
		pad := new([rowsPerBlock + 1]int32)
		k := copy(pad[:], off[lo:])
		for i := k; i < len(pad); i++ {
			pad[i] = off[n]
		}
		r.blocks[b] = rowBlock[T]{off: pad, adj: adj}
	}
	return r
}

// blockOffsets returns n+1 zero row offsets in an array whose capacity
// holds the last block's header, for fromBlockOffsets to view whole.
func blockOffsets(n int) []int32 {
	return make([]int32, n+1, (n+rowsPerBlock-1)/rowsPerBlock*rowsPerBlock+1)
}

// fromBlockOffsets is FromFlat for offsets from blockOffsets: the last
// block's rows past n, empty, are written into their capacity, so no block
// is a padded copy.
func fromBlockOffsets[T any](off []int32, adj []T) Rows[T] {
	n := len(off) - 1
	whole := off[:cap(off)]
	for i := n + 1; i < len(whole); i++ {
		whole[i] = off[n]
	}
	r := FromFlat(whole, adj)
	r.n, r.off = n, off
	return r
}

// Cells returns the total length of all rows.
func (r *Rows[T]) Cells() int { return r.cells }

// Bytes returns what r holds: its cells, and per block the header and
// rowsPerBlock+1 offsets. A block shared with another store counts in full;
// the zero store holds none.
func (r *Rows[T]) Bytes() int {
	var cell T
	perBlock := int(unsafe.Sizeof(rowBlock[T]{})) + 4*(rowsPerBlock+1)
	return r.cells*int(unsafe.Sizeof(cell)) + len(r.blocks)*perBlock
}

// Row returns row v: shared storage, not to be modified. It is the one
// read path of every structure built on a Rows.
//
//fod:hotpath
func (r *Rows[T]) Row(v V) []T {
	b := &r.blocks[uint(v)/rowsPerBlock]
	i := uint(v) % rowsPerBlock
	return b.adj[b.off[i]:b.off[i+1]]
}

// Len returns the length of row v.
func (r *Rows[T]) Len(v V) int {
	b := &r.blocks[uint(v)/rowsPerBlock]
	i := uint(v) % rowsPerBlock
	return int(b.off[i+1] - b.off[i])
}

// Patch returns the store whose row vs[i] is rows[i] and whose other rows
// are r's; vs ascends strictly. Blocks without a replaced row are shared
// with r, the others are rebuilt into arrays of their own, so r — and
// whatever flat pair it views — stays as it is. rows are copied.
func (r *Rows[T]) Patch(vs []V, rows [][]T) Rows[T] {
	if len(vs) == 0 {
		return *r
	}
	out := Rows[T]{n: r.n, cells: r.cells, blocks: slices.Clone(r.blocks)}
	for i := 0; i < len(vs); {
		bi := vs[i] / rowsPerBlock
		j := i + 1
		for j < len(vs) && vs[j]/rowsPerBlock == bi {
			j++
		}
		old := r.blocks[bi]
		total := int(old.off[rowsPerBlock] - old.off[0])
		for k := i; k < j; k++ {
			total += len(rows[k]) - r.Len(vs[k])
		}
		nb := rowBlock[T]{off: new([rowsPerBlock + 1]int32), adj: make([]T, 0, total)}
		from := 0
		for k := i; k < j; k++ {
			u := vs[k] % rowsPerBlock
			nb.keep(&old, from, u)
			nb.adj = append(nb.adj, rows[k]...)
			nb.off[u+1] = int32(len(nb.adj))
			from = u + 1
		}
		nb.keep(&old, from, rowsPerBlock)
		out.cells += total - int(old.off[rowsPerBlock]-old.off[0])
		out.blocks[bi] = nb
		i = j
	}
	return out
}

// keep appends rows [from, to) of old to b, a block under construction
// whose rows before from are in place, in one piece.
func (b *rowBlock[T]) keep(old *rowBlock[T], from, to int) {
	shift := int32(len(b.adj)) - old.off[from]
	b.adj = append(b.adj, old.adj[old.off[from]:old.off[to]]...)
	for u := from + 1; u <= to; u++ {
		b.off[u] = old.off[u] + shift
	}
}

// Flat returns the store as one CSR pair (read-only): the arrays it views
// when no row was ever replaced, a fresh assembly otherwise. It is what a
// snapshot writes, so a patched store and a rebuilt one serialize alike.
func (r *Rows[T]) Flat() (off []int32, adj []T) {
	if r.off != nil {
		return r.off, r.flat
	}
	off, adj = make([]int32, r.n+1), make([]T, 0, r.cells)
	for bi := range r.blocks {
		b := &r.blocks[bi]
		lo := bi * rowsPerBlock
		cnt := min(rowsPerBlock, r.n-lo)
		shift := int32(len(adj)) - b.off[0]
		for i := 0; i <= cnt; i++ {
			off[lo+i] = b.off[i] + shift
		}
		adj = append(adj, b.adj[b.off[0]:b.off[cnt]]...)
	}
	return off, adj
}

// Cell is one cell of a store of ascending int32 rows: Val in row Row.
type Cell struct {
	Row V
	Val int32
}

// Toggle returns r, a store of ascending rows, with every cell of cells
// toggled — taken out of its row when it is there, put in where it belongs
// when it is not — and the rows that changed, ascending. cells holds no
// cell twice and is sorted in place. It is how a write edits sorted rows:
// adjacency lists by arcs, inverted lists by (vertex, bag) pairs.
func Toggle(r *Rows[int32], cells []Cell) (Rows[int32], []V) {
	slices.SortFunc(cells, func(a, b Cell) int {
		if a.Row != b.Row {
			return cmp.Compare(a.Row, b.Row)
		}
		return cmp.Compare(a.Val, b.Val)
	})
	size := len(cells)
	for i, c := range cells {
		if i == 0 || cells[i-1].Row != c.Row {
			size += r.Len(c.Row)
		}
	}
	buf := make([]int32, 0, size)
	var vs []V
	var rows [][]int32
	for i := 0; i < len(cells); {
		v, start := cells[i].Row, len(buf)
		for _, x := range r.Row(v) {
			for ; i < len(cells) && cells[i].Row == v && cells[i].Val < x; i++ {
				buf = append(buf, cells[i].Val)
			}
			if i < len(cells) && cells[i].Row == v && cells[i].Val == x {
				i++
				continue
			}
			buf = append(buf, x)
		}
		for ; i < len(cells) && cells[i].Row == v; i++ {
			buf = append(buf, cells[i].Val)
		}
		vs, rows = append(vs, v), append(rows, buf[start:])
	}
	return r.Patch(vs, rows), vs
}
