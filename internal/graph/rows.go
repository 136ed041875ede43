package graph

import (
	"cmp"
	"fmt"
	"slices"
	"unsafe"
)

// rowsPerBlock is how many consecutive rows share one block of a Rows. A
// write copies the blocks it dirtied: small enough that a dirty block is a
// few KB of ball rows, large enough that the pointer to a block (8 bytes)
// costs an eighth of a byte a row.
const rowsPerBlock = 64

// Rows is an immutable store of rows of cells — adjacency lists, ball rows,
// bags, kernels, inverted lists — in blocks of rowsPerBlock consecutive
// rows. FromFlat views one CSR pair, the base, and makes nothing else, so a
// build and a snapshot restore copy nothing. Patch rebuilds each block with
// a replaced or appended row into arrays of its own, behind Paged pages of
// pointers that are nil for a block the base still holds; the store it
// returns shares the base, every other rebuilt block and every page without
// a block it rebuilt with its receiver, so the versions of an index pay for
// the rows a write touched and not for n. The zero value is the store of no
// rows.
type Rows[T any] struct {
	// The base offsets of a store no Patch made (nil for one a Patch made)
	// and the base cells, which Row reads off directly. First, so that a
	// reader of a store inside another struct finds them on that struct's
	// cache line.
	off    []int32
	flat   []T
	n      int
	cells  int                 // Σ row lengths
	base   []int32             // the base offsets, for a store a Patch made
	blocks Paged[*rowBlock[T]] // the rebuilt blocks; no pages before the first Patch
}

// rowBlock holds the rows [64b, 64b+len(off)-1) of block b: row i is
// adj[off[i]:off[i+1]].
type rowBlock[T any] struct {
	off []int32
	adj []T
}

// FromFlat returns the store whose row v is adj[off[v]:off[v+1]], viewing
// both arrays: they must not be written afterwards. off must hold
// non-decreasing offsets from 0 to len(adj) — callers restoring a snapshot
// check that first (CheckRows).
func FromFlat[T any](off []int32, adj []T) Rows[T] {
	return Rows[T]{n: len(off) - 1, cells: len(adj), off: off, flat: adj}
}

// block returns block bi: the rebuilt one, or a view of the base.
func (r *Rows[T]) block(bi int) rowBlock[T] {
	if bi < r.blocks.Len() {
		if b := r.blocks.At(bi); b != nil {
			return *b
		}
	}
	base, lo := r.baseOff(), bi*rowsPerBlock
	return rowBlock[T]{off: base[lo : min(lo+rowsPerBlock, len(base)-1)+1], adj: r.flat}
}

// baseOff returns the base offsets.
func (r *Rows[T]) baseOff() []int32 {
	if r.off != nil {
		return r.off
	}
	return r.base
}

// CheckRows reports whether (off, data) is the CSR pair of rows rows, each
// an ascending list over [0, universe): rows+1 offsets that start at 0,
// never decrease and end at len(data), and in every row each value above
// the one before it. It is what every restore checks of a saved row family
// before FromFlat adopts it; the callers add their own rules.
func CheckRows(off, data []int32, rows, universe int) error {
	if rows < 0 || len(off) != rows+1 || off[0] != 0 || int(off[rows]) != len(data) {
		return fmt.Errorf("%d offsets over %d cells do not frame %d rows", len(off), len(data), rows)
	}
	for i := 0; i < rows; i++ {
		if off[i+1] < off[i] || int(off[i+1]) > len(data) {
			return fmt.Errorf("row %d has offsets [%d, %d)", i, off[i], off[i+1])
		}
		prev := int32(-1)
		for _, v := range data[off[i]:off[i+1]] {
			if v <= prev || int(v) >= universe {
				return fmt.Errorf("row %d is not an ascending list over [0,%d)", i, universe)
			}
			prev = v
		}
	}
	return nil
}

// N returns the number of rows.
func (r *Rows[T]) N() int { return r.n }

// Cells returns the total length of all rows.
func (r *Rows[T]) Cells() int { return r.cells }

// Bytes returns what r holds: its cells, the row offsets and the pages of
// block pointers. A block shared with another store counts in full; the
// zero store holds none.
func (r *Rows[T]) Bytes() int {
	var cell T
	return r.cells*int(unsafe.Sizeof(cell)) + 4*r.n + r.blocks.Bytes()
}

// Row returns row v: shared storage, not to be modified. It is the one
// read path of every structure built on a Rows.
//
//fod:hotpath
func (r *Rows[T]) Row(v V) []T {
	off, adj, i := r.off, r.flat, uint(v)
	if off == nil {
		off = r.base
		if b := r.blocks.pages[i/(rowsPerBlock*pageLen)][i/rowsPerBlock%pageLen]; b != nil {
			off, adj, i = b.off, b.adj, i%rowsPerBlock
		}
	}
	return adj[off[i]:off[i+1]]
}

// Len returns the length of row v.
func (r *Rows[T]) Len(v V) int { return len(r.Row(v)) }

// Patch returns the store whose row vs[i] is rows[i] and whose other rows
// are r's; vs ascends strictly, and its entries from N() on are N(),
// N()+1, …: rows appended. Blocks without a replaced or appended row are
// shared with r, the others are rebuilt into arrays of their own, and only
// the pages of pointers to rebuilt blocks are copied, so r — and
// whatever flat pair it views — stays as it is. rows are copied.
func (r *Rows[T]) Patch(vs []V, rows [][]T) Rows[T] {
	if len(vs) == 0 {
		return *r
	}
	n := max(r.n, vs[len(vs)-1]+1)
	if k, _ := slices.BinarySearch(vs, r.n); n-r.n != len(vs)-k {
		panic(fmt.Sprintf("graph: rows appended to %d rows are not %d, %d, …", r.n, r.n, r.n+1))
	}
	blocks := r.blocks.Edit()
	if r.blocks.pages == nil { // every block in the base
		none := PagedOf(PageAligned[*rowBlock[T]](r.Blocks()))
		blocks = none.Edit()
	}
	cells := r.cells
	for i := 0; i < len(vs); {
		bi := vs[i] / rowsPerBlock
		j := i + 1
		for j < len(vs) && vs[j]/rowsPerBlock == bi {
			j++
		}
		var old rowBlock[T] // none for a block of appended rows only
		if bi < r.Blocks() {
			old = r.block(bi)
		}
		total := old.len(0, len(old.off)-1)
		for k := i; k < j; k++ {
			u := vs[k] % rowsPerBlock
			total += len(rows[k]) - old.len(u, u+1)
		}
		nb := rowBlock[T]{off: make([]int32, min(rowsPerBlock, n-bi*rowsPerBlock)+1), adj: make([]T, 0, total)}
		from := 0
		for k := i; k < j; k++ {
			u := vs[k] % rowsPerBlock
			nb.keep(&old, from, u)
			nb.adj = append(nb.adj, rows[k]...)
			nb.off[u+1] = int32(len(nb.adj))
			from = u + 1
		}
		nb.keep(&old, from, len(nb.off)-1)
		cells += total - old.len(0, len(old.off)-1)
		if bi < blocks.Len() {
			blocks.Set(bi, &nb)
		} else {
			blocks.Append(&nb)
		}
		i = j
	}
	return Rows[T]{flat: r.flat, n: n, cells: cells, base: r.baseOff(), blocks: blocks.Paged()}
}

// len returns the cells of rows [from, to) of b, none past its end.
func (b *rowBlock[T]) len(from, to int) int {
	if to = min(to, len(b.off)-1); from >= to {
		return 0
	}
	return int(b.off[to] - b.off[from])
}

// keep appends rows [from, to) of old to b, a block under construction
// whose rows before from are in place, in one piece.
func (b *rowBlock[T]) keep(old *rowBlock[T], from, to int) {
	if to = min(to, len(old.off)-1); from >= to {
		return
	}
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
	for bi := range r.Blocks() {
		b := r.block(bi)
		lo := bi * rowsPerBlock
		shift := int32(len(adj)) - b.off[0]
		for i, o := range b.off {
			off[lo+i] = o + shift
		}
		adj = append(adj, b.adj[b.off[0]:b.off[len(b.off)-1]]...)
	}
	return off, adj
}

// Blocks returns the number of blocks.
func (r *Rows[T]) Blocks() int { return (r.n + rowsPerBlock - 1) / rowsPerBlock }

// BlockOf returns the index of the block that holds row v.
func (r *Rows[T]) BlockOf(v V) int { return v / rowsPerBlock }

// SharesBlock reports whether block bi of r is block bi of q: the same
// storage, as two versions of one store share what no write dirtied.
func (r *Rows[T]) SharesBlock(q *Rows[T], bi int) bool {
	return bi < r.Blocks() && bi < q.Blocks() && &r.block(bi).off[0] == &q.block(bi).off[0]
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
