package graph

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"unsafe"
)

// flatten is the reference: the CSR pair of a list of rows.
func flatten(rows [][]int32) (off, adj []int32) {
	off = make([]int32, len(rows)+1)
	adj = []int32{}
	for v, row := range rows {
		adj = append(adj, row...)
		off[v+1] = int32(len(adj))
	}
	return off, adj
}

// sameStore reports how r departs from the model: Flat word for word, every
// Row and Len, the carried cell count.
func sameStore(t *testing.T, what string, r *Rows[int32], model [][]int32) {
	t.Helper()
	wantOff, wantAdj := flatten(model)
	gotOff, gotAdj := r.Flat()
	if !slices.Equal(gotOff, wantOff) || !slices.Equal(gotAdj, wantAdj) {
		t.Fatalf("%s: Flat() = %v %v, a flat rebuild gives %v %v", what, gotOff, gotAdj, wantOff, wantAdj)
	}
	if r.N() != len(model) || r.Cells() != len(wantAdj) {
		t.Fatalf("%s: N, Cells = %d, %d, want %d, %d", what, r.N(), r.Cells(), len(model), len(wantAdj))
	}
	for v, row := range model {
		if !slices.Equal(r.Row(v), row) || r.Len(v) != len(row) {
			t.Fatalf("%s: row %d = %v (Len %d), want %v", what, v, r.Row(v), r.Len(v), row)
		}
	}
}

func randomRow(rng *rand.Rand, maxLen int) []int32 {
	row := make([]int32, rng.Intn(maxLen+1))
	for i := range row {
		row[i] = int32(rng.Intn(1000))
	}
	return row
}

// patchBoth replaces rows vs of the store and of the model alike; vs past
// the model's end append.
func patchBoth(r Rows[int32], model [][]int32, vs []V, rows [][]int32) (Rows[int32], [][]int32) {
	model = slices.Clone(model)
	for i, v := range vs {
		if v == len(model) {
			model = append(model, nil)
		}
		model[v] = rows[i]
	}
	return r.Patch(vs, rows), model
}

// sharedBlocks checks the sharing contract between a store and the one it
// was patched from: a block without a replaced or appended row is the same
// block, one with such a row is not.
func sharedBlocks(t *testing.T, what string, old, next *Rows[int32], vs []V) {
	t.Helper()
	dirty := map[int]bool{}
	for _, v := range vs {
		dirty[old.BlockOf(v)] = true
	}
	for b := range old.Blocks() {
		if same := next.SharesBlock(old, b); same == dirty[b] {
			t.Fatalf("%s: block %d shared = %v, a row of it replaced = %v", what, b, same, dirty[b])
		}
	}
}

// appended returns the indices of k rows appended to a store of n.
func appended(n, k int) []V {
	vs := make([]V, k)
	for i := range vs {
		vs[i] = n + i
	}
	return vs
}

func TestRowsPatchAgainstFlatRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// Past 64·256 rows the block pointers fill more than one page.
	for _, n := range []int{0, 1, 5, 63, 64, 65, 128, 130, 200, 2*rowsPerBlock*pageLen + 70} {
		model := make([][]int32, n)
		for v := range model {
			model[v] = randomRow(rng, 4)
		}
		r := FromFlat(flatten(model))
		sameStore(t, "built", &r, model)
		if n == 0 {
			for _, r := range []Rows[int32]{r, {}} {
				rows := [][]int32{{1}, nil, {2, 3}}
				next, nextModel := patchBoth(r, model, appended(0, 3), rows)
				sameStore(t, "rows appended to none", &next, nextModel)
			}
			continue
		}
		all := appended(0, n)
		steps := []struct {
			name string
			vs   []V
			row  func(v V) []int32
		}{
			{"first and last row", slices.Compact([]V{0, n - 1}), func(V) []int32 { return randomRow(rng, 6) }},
			{"append a row", appended(n, 1), func(V) []int32 { return randomRow(rng, 4) }},
			{"the first row and 70 appended", append([]V{0}, appended(n+1, 70)...), func(V) []int32 { return randomRow(rng, 3) }},
			{"append nothing but empty rows", appended(n+71, 3), func(V) []int32 { return nil }},
			{"grow a row", []V{n / 2}, func(V) []int32 { return []int32{1, 2, 3, 4, 5, 6, 7, 8, 9} }},
			{"shrink the same row", []V{n / 2}, func(V) []int32 { return []int32{7} }},
			{"empty the same row", []V{n / 2}, func(V) []int32 { return nil }},
			{"every row dirty", all, func(V) []int32 { return randomRow(rng, 3) }},
			{"every row empty", all, func(V) []int32 { return nil }},
			{"every row back", all, func(v V) []int32 { return []int32{int32(v)} }},
			{"nothing", nil, nil},
		}
		for _, st := range steps {
			rows := make([][]int32, len(st.vs))
			for i, v := range st.vs {
				rows[i] = st.row(v)
			}
			next, nextModel := patchBoth(r, model, st.vs, rows)
			sameStore(t, st.name, &next, nextModel)
			sameStore(t, st.name+", receiver", &r, model)
			sharedBlocks(t, st.name, &r, &next, st.vs)
			r, model = next, nextModel
		}
		for i := 0; i < 30; i++ {
			vs := append(randomAscending(rng, len(model)), appended(len(model), rng.Intn(3))...)
			rows := make([][]int32, len(vs))
			for j := range rows {
				rows[j] = randomRow(rng, 5)
			}
			next, nextModel := patchBoth(r, model, vs, rows)
			sameStore(t, "random patch", &next, nextModel)
			sharedBlocks(t, "random patch", &r, &next, vs)
			r, model = next, nextModel
		}
	}
}

func randomAscending(rng *rand.Rand, n int) []V {
	var vs []V
	for v := 0; v < n; v++ {
		if rng.Intn(8) == 0 {
			vs = append(vs, v)
		}
	}
	return vs
}

// TestRowsFlatAfterPatchInOneBlock is the assertion the snapshot of a
// patched index rests on: after one Patch that grows a row, shrinks one and
// empties one of the same block, Flat is the CSR pair of a rebuild.
func TestRowsFlatAfterPatchInOneBlock(t *testing.T) {
	model := make([][]int32, 70)
	for v := range model {
		model[v] = []int32{int32(v), int32(v) + 1}
	}
	r := FromFlat(flatten(model))
	r, model = patchBoth(r, model, []V{3, 4, 5}, [][]int32{{1, 2, 3, 4, 5}, {9}, {}})
	sameStore(t, "grow, shrink, empty", &r, model)
	off, adj := r.Flat()
	if off[3] != 6 || off[4] != 11 || off[5] != 12 || off[6] != 12 || len(adj) != 140+3-1-2 {
		t.Fatalf("offsets around the patched rows: %v, %d cells", off[3:7], len(adj))
	}
}

// TestRowsPatchNeverWritesAParent: after 200 chained patches the first
// version — a view of a flat pair — and a version from the middle of the
// chain read exactly as they did: no patched block appends into an array an
// older version reads.
func TestRowsPatchNeverWritesAParent(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const n = 300
	model := make([][]int32, n)
	for v := range model {
		model[v] = randomRow(rng, 4)
	}
	off, adj := flatten(model)
	first, firstModel := FromFlat(off, adj), model
	offWas, adjWas := slices.Clone(off), slices.Clone(adj)
	r := first
	var mid Rows[int32]
	var midModel [][]int32
	for i := 0; i < 200; i++ {
		vs := randomAscending(rng, n)
		rows := make([][]int32, len(vs))
		for j := range rows {
			rows[j] = randomRow(rng, 6)
		}
		r, model = patchBoth(r, model, vs, rows)
		if i == 100 {
			mid, midModel = r, model
		}
	}
	sameStore(t, "head", &r, model)
	sameStore(t, "version 101", &mid, midModel)
	sameStore(t, "first version", &first, firstModel)
	if gotOff, gotAdj := first.Flat(); &gotOff[0] != &off[0] || &gotAdj[0] != &adj[0] {
		t.Fatal("the first version no longer hands back the arrays it views")
	}
	if !slices.Equal(off, offWas) || !slices.Equal(adj, adjWas) {
		t.Fatal("a patch wrote into the flat pair the first version views")
	}
}

func TestToggle(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 64, 150} {
		model := make([][]int32, n)
		r := FromFlat(flatten(model))
		for i := 0; i < 40; i++ {
			seen := map[Cell]bool{}
			var cells []Cell
			for j := rng.Intn(12); j > 0; j-- {
				c := Cell{Row: rng.Intn(n), Val: int32(rng.Intn(10))}
				if !seen[c] {
					seen[c] = true
					cells = append(cells, c)
				}
			}
			nextModel := slices.Clone(model)
			var wantVs []V
			for _, c := range cells {
				row := slices.Clone(nextModel[c.Row])
				if at, found := slices.BinarySearch(row, c.Val); found {
					row = slices.Delete(row, at, at+1)
				} else {
					row = slices.Insert(row, at, c.Val)
				}
				nextModel[c.Row] = row
				wantVs = append(wantVs, c.Row)
			}
			slices.Sort(wantVs)
			wantVs = slices.Compact(wantVs)
			next, vs := Toggle(&r, cells)
			if !slices.Equal(vs, wantVs) {
				t.Fatalf("n=%d: Toggle changed rows %v, want %v", n, vs, wantVs)
			}
			sameStore(t, "toggled", &next, nextModel)
			sameStore(t, "toggled, receiver", &r, model)
			r, model = next, nextModel
		}
	}
}

// FuzzRowsPatch drives a chain of patches from the input bytes — the first
// sets n, then each patch reads how many rows it replaces, which, and how
// long each new row is — an index past the rows appends one — and holds
// every version against a flat rebuild. A store past one page of header
// pointers (16 384 rows) is TestRowsPatchAgainstFlatRebuild's.
func FuzzRowsPatch(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{1, 1, 0, 0})                                // n = 1, its row emptied
	f.Add([]byte{63, 2, 0, 3, 62, 0})                        // n < 64: first and last row
	f.Add([]byte{64, 1, 63, 5, 1, 63, 0})                    // one full block: grow then empty its last row
	f.Add([]byte{65, 1, 64, 2, 1, 64, 9, 1, 64, 0})          // the one row of a partial block: grow, grow, empty
	f.Add([]byte{200, 3, 0, 1, 64, 1, 199, 1, 2, 10, 0, 0})  // three blocks dirty at once
	f.Add([]byte{130, 255, 1, 2, 3, 4, 5, 6, 7, 8, 9, 1, 2}) // more rows asked for than there are
	f.Add([]byte{63, 2, 63, 1, 70, 2, 1, 0, 3})              // two rows appended, the second in a new block
	f.Add([]byte{0, 3, 0, 1, 1, 2, 9, 0})                    // rows appended to no rows
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n, data := int(data[0]), data[1:]
		model := make([][]int32, n)
		for v := range model {
			model[v] = []int32{int32(v)}
		}
		r := FromFlat(flatten(model))
		sameStore(t, "built", &r, model)
		for step := 0; len(data) > 0; step++ {
			count := int(data[0])
			data = data[1:]
			rowOf := map[V][]int32{}
			var tail [][]int32 // rows appended
			for ; count > 0 && len(data) >= 2; count-- {
				row := make([]int32, data[1]%16)
				for i := range row {
					row[i] = int32(step*16 + i)
				}
				if v := int(data[0]); v < len(model) {
					rowOf[v] = row
				} else {
					tail = append(tail, row)
				}
				data = data[2:]
			}
			var vs []V
			for v := range rowOf {
				vs = append(vs, v)
			}
			slices.Sort(vs)
			rows := make([][]int32, len(vs))
			for i, v := range vs {
				rows[i] = rowOf[v]
			}
			vs, rows = append(vs, appended(len(model), len(tail))...), append(rows, tail...)
			next, nextModel := patchBoth(r, model, vs, rows)
			sameStore(t, "patched", &next, nextModel)
			sameStore(t, "receiver", &r, model)
			sharedBlocks(t, "patched", &r, &next, vs)
			r, model = next, nextModel
		}
	})
}

// TestRowsPatchCopiesOneHeaderPage: the first write to a built
// million-row store makes its pages of block pointers, once; after that,
// replacing one row allocates the rebuilt block, one page of pointers and
// the table of those pages — not a copy of every pointer or header.
func TestRowsPatchCopiesOneHeaderPage(t *testing.T) {
	if testing.Short() {
		t.Skip("measures allocated bytes")
	}
	const n = 1_000_000
	off, adj := make([]int32, n+1), make([]int32, n)
	for v := range adj {
		adj[v], off[v+1] = int32(v), int32(v+1)
	}
	r := FromFlat(off, adj)
	ptr := int(unsafe.Sizeof(&rowBlock[int32]{}))
	page, table := pageLen*ptr, ptr*(r.Blocks()+pageLen-1)/pageLen
	block := int(unsafe.Sizeof(rowBlock[int32]{})) + 4*(rowsPerBlock+1) + 4*(rowsPerBlock+1)
	pointers := ptr * r.Blocks()
	const sizeClassSlack = 512
	for i, v := range []V{0, n / 2, n/2 + 1} { // a built store, then patched ones
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		next := r.Patch([]V{v}, [][]int32{{1, 2}})
		runtime.ReadMemStats(&after)
		want := page + table + block + sizeClassSlack
		if i == 0 {
			// The pointers, their last page filled out and rounded up to
			// a whole 8 KB span.
			want += pointers + pageLen*ptr + 8192
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > uint64(want) {
			t.Fatalf("patching row %d allocated %d bytes, want at most %d: a page of block pointers (%d), the page table (%d) and a block (%d), and the first time every pointer (%d)",
				v, got, want, page, table, block, pointers)
		}
		r = next
	}
	for _, v := range []V{0, n / 2, n/2 + 1} {
		if !slices.Equal(r.Row(v), []int32{1, 2}) {
			t.Fatalf("row %d is %v after the patch that replaced it", v, r.Row(v))
		}
	}
	if r.Cells() != n+3 {
		t.Fatalf("%d cells after three patches, want %d", r.Cells(), n+3)
	}
}

// TestCheckRows: each malformation of a saved CSR pair is rejected, and the
// valid pairs are accepted.
func TestCheckRows(t *testing.T) {
	for _, c := range []struct {
		name           string
		off, data      []int32
		rows, universe int
		ok             bool
	}{
		{"three rows", []int32{0, 2, 2, 3}, []int32{0, 4, 1}, 3, 5, true},
		{"no rows", []int32{0}, nil, 0, 0, true},
		{"no offsets", nil, nil, 0, 5, false},
		{"negative row count", nil, nil, -1, 5, false},
		{"one offset short", []int32{0, 2, 3}, []int32{0, 4, 1}, 3, 5, false},
		{"first offset not 0", []int32{1, 2, 2, 3}, []int32{0, 4, 1}, 3, 5, false},
		{"last offset short of the data", []int32{0, 2, 2, 2}, []int32{0, 4, 1}, 3, 5, false},
		{"last offset past the data", []int32{0, 2, 2, 4}, []int32{0, 4, 1}, 3, 5, false},
		{"an offset past the data", []int32{0, 5, 2, 3}, []int32{0, 4, 1}, 3, 5, false},
		{"offsets decrease", []int32{0, 2, 1, 3}, []int32{0, 4, 1}, 3, 5, false},
		{"a row descends", []int32{0, 2, 2, 3}, []int32{4, 0, 1}, 3, 5, false},
		{"a row repeats a value", []int32{0, 2, 2, 3}, []int32{4, 4, 1}, 3, 5, false},
		{"a value past the universe", []int32{0, 2, 2, 3}, []int32{0, 5, 1}, 3, 5, false},
		{"a negative value", []int32{0, 2, 2, 3}, []int32{-1, 4, 1}, 3, 5, false},
	} {
		if err := CheckRows(c.off, c.data, c.rows, c.universe); (err == nil) != c.ok {
			t.Errorf("%s: CheckRows = %v, want accepted: %v", c.name, err, c.ok)
		}
	}
}
