package graph

import (
	"math/rand"
	"slices"
	"testing"
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
	if r.n != len(model) || r.Cells() != len(wantAdj) {
		t.Fatalf("%s: n, Cells = %d, %d, want %d, %d", what, r.n, r.Cells(), len(model), len(wantAdj))
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

// patchBoth replaces rows vs of the store and of the model alike.
func patchBoth(r Rows[int32], model [][]int32, vs []V, rows [][]int32) (Rows[int32], [][]int32) {
	model = slices.Clone(model)
	for i, v := range vs {
		model[v] = rows[i]
	}
	return r.Patch(vs, rows), model
}

// sharedBlocks checks the sharing contract between a store and the one it
// was patched from: a block without a replaced row is the same block, one
// with a replaced row is not.
func sharedBlocks(t *testing.T, what string, old, next *Rows[int32], vs []V) {
	t.Helper()
	dirty := map[int]bool{}
	for _, v := range vs {
		dirty[v/rowsPerBlock] = true
	}
	for b := range old.blocks {
		same := old.blocks[b].off == next.blocks[b].off
		if same == dirty[b] {
			t.Fatalf("%s: block %d shared = %v, a row of it replaced = %v", what, b, same, dirty[b])
		}
	}
}

func TestRowsPatchAgainstFlatRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 5, 63, 64, 65, 128, 130, 200} {
		model := make([][]int32, n)
		for v := range model {
			model[v] = randomRow(rng, 4)
		}
		r := FromFlat(flatten(model))
		sameStore(t, "built", &r, model)
		if n == 0 {
			continue
		}
		all := make([]V, n)
		for v := range all {
			all[v] = v
		}
		steps := []struct {
			name string
			vs   []V
			row  func(v V) []int32
		}{
			{"first and last row", slices.Compact([]V{0, n - 1}), func(V) []int32 { return randomRow(rng, 6) }},
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
			vs := randomAscending(rng, n)
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
// long each new row is — and holds every version against a flat rebuild.
func FuzzRowsPatch(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{1, 1, 0, 0})                                // n = 1, its row emptied
	f.Add([]byte{63, 2, 0, 3, 62, 0})                        // n < 64: first and last row
	f.Add([]byte{64, 1, 63, 5, 1, 63, 0})                    // one full block: grow then empty its last row
	f.Add([]byte{65, 1, 64, 2, 1, 64, 9, 1, 64, 0})          // the one row of a partial block: grow, grow, empty
	f.Add([]byte{200, 3, 0, 1, 64, 1, 199, 1, 2, 10, 0, 0})  // three blocks dirty at once
	f.Add([]byte{130, 255, 1, 2, 3, 4, 5, 6, 7, 8, 9, 1, 2}) // more rows asked for than there are
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
		for step := 0; len(data) > 0 && n > 0; step++ {
			count := int(data[0])
			data = data[1:]
			rowOf := map[V][]int32{}
			for ; count > 0 && len(data) >= 2; count-- {
				row := make([]int32, data[1]%16)
				for i := range row {
					row[i] = int32(step*16 + i)
				}
				rowOf[int(data[0])%n] = row
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
			next, nextModel := patchBoth(r, model, vs, rows)
			sameStore(t, "patched", &next, nextModel)
			sameStore(t, "receiver", &r, model)
			sharedBlocks(t, "patched", &r, &next, vs)
			r, model = next, nextModel
		}
	})
}
