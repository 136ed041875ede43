package graph

import (
	"math/rand"
	"reflect"
	"testing"
)

// rebuildReference applies edits to an explicit edge/color model and
// rebuilds through the Builder — the ground truth Patch must match
// byte-for-byte.
func rebuildReference(g *Graph, edits []Edit) *Graph {
	type pair struct{ u, v V }
	edges := map[pair]bool{}
	for v := 0; v < g.N(); v++ {
		for _, w := range g.Neighbors(v) {
			if v < int(w) {
				edges[pair{v, int(w)}] = true
			}
		}
	}
	colors := make([]map[Color]bool, g.N())
	for v := 0; v < g.N(); v++ {
		colors[v] = map[Color]bool{}
		for c := 0; c < g.NumColors(); c++ {
			if g.HasColor(v, c) {
				colors[v][c] = true
			}
		}
	}
	for _, e := range edits {
		switch e.Op {
		case AddEdge:
			if e.U != e.V {
				u, v := e.U, e.V
				if u > v {
					u, v = v, u
				}
				edges[pair{u, v}] = true
			}
		case RemoveEdge:
			u, v := e.U, e.V
			if u > v {
				u, v = v, u
			}
			delete(edges, pair{u, v})
		case AddColor:
			colors[e.U][e.Color] = true
		case RemoveColor:
			delete(colors[e.U], e.Color)
		}
	}
	b := NewBuilder(g.N(), g.NumColors())
	for e := range edges { // Builder sorts and dedups rows itself
		b.AddEdge(e.u, e.v)
	}
	for v, cs := range colors {
		for c := range cs {
			b.SetColor(v, c)
		}
	}
	return b.Build()
}

func randomEdits(rng *rand.Rand, n, ncol, count int) []Edit {
	edits := make([]Edit, count)
	for i := range edits {
		op := EditOp(rng.Intn(4))
		e := Edit{Op: op, U: rng.Intn(n)}
		if op == AddEdge || op == RemoveEdge {
			e.V = rng.Intn(n)
		} else if ncol > 0 {
			e.Color = rng.Intn(ncol)
		} else {
			e.Op = AddEdge
			e.V = rng.Intn(n)
		}
		edits[i] = e
	}
	return edits
}

func graphsIdentical(t *testing.T, got, want *Graph) {
	t.Helper()
	if got.N() != want.N() || got.M() != want.M() {
		t.Fatalf("dims: got n=%d m=%d, want n=%d m=%d", got.N(), got.M(), want.N(), want.M())
	}
	if got.MaxDegree() != want.MaxDegree() {
		t.Fatalf("max degree: got %d, want %d", got.MaxDegree(), want.MaxDegree())
	}
	gotOff, gotAdj := got.rows.Flat()
	wantOff, wantAdj := want.rows.Flat()
	if !reflect.DeepEqual(gotOff, wantOff) {
		t.Fatalf("offset arrays differ")
	}
	if !reflect.DeepEqual(gotAdj, wantAdj) {
		t.Fatalf("adjacency arrays differ")
	}
	if gotC, wantC := got.colors.Flat(), want.colors.Flat(); !reflect.DeepEqual(gotC, wantC) {
		t.Fatalf("color sets differ: got %v want %v", gotC, wantC)
	}
}

// TestPatchDifferential: Patch ≡ rebuild-from-scratch on random edit
// batches, byte-for-byte (CSR arrays and color bitsets), across densities.
func TestPatchDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(40)
		ncol := rng.Intn(3)
		b := NewBuilder(n, ncol)
		for i := 0; i < rng.Intn(3*n); i++ {
			b.AddEdge(rng.Intn(n), rng.Intn(n))
		}
		for v := 0; v < n; v++ {
			for c := 0; c < ncol; c++ {
				if rng.Intn(3) == 0 {
					b.SetColor(v, c)
				}
			}
		}
		g := b.Build()
		edits := randomEdits(rng, n, ncol, 1+rng.Intn(8))
		got, err := Patch(g, edits)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		graphsIdentical(t, got, rebuildReference(g, edits))
	}
}

// TestPatchLeavesOriginal: the source graph is untouched by a patch, even
// through shared backing (copy-on-write discipline).
func TestPatchLeavesOriginal(t *testing.T) {
	b := NewBuilder(4, 1)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.SetColor(2, 0)
	g := b.Build()
	_, adj := g.rows.Flat()
	snapAdj := append([]int32(nil), adj...)
	_, err := Patch(g, []Edit{
		{Op: RemoveEdge, U: 0, V: 1},
		{Op: AddEdge, U: 2, V: 3},
		{Op: AddColor, U: 0, Color: 0},
		{Op: RemoveColor, U: 2, Color: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, adj := g.rows.Flat(); !reflect.DeepEqual(adj, snapAdj) {
		t.Fatal("patch mutated the source adjacency")
	}
	if g.HasColor(0, 0) || !g.HasColor(2, 0) {
		t.Fatal("patch mutated the source colors")
	}
}

// TestPatchNoOps: self-loops, re-adding present edges, removing absent
// ones, and add-then-remove pairs all net out exactly.
func TestPatchNoOps(t *testing.T) {
	b := NewBuilder(3, 0)
	b.AddEdge(0, 1)
	g := b.Build()
	got, err := Patch(g, []Edit{
		{Op: AddEdge, U: 1, V: 1},    // self-loop
		{Op: AddEdge, U: 0, V: 1},    // present
		{Op: RemoveEdge, U: 1, V: 2}, // absent
		{Op: AddEdge, U: 0, V: 2},    // added…
		{Op: RemoveEdge, U: 2, V: 0}, // …then removed (later wins)
		{Op: RemoveEdge, U: 0, V: 1}, // removed…
		{Op: AddEdge, U: 1, V: 0},    // …then restored
	})
	if err != nil {
		t.Fatal(err)
	}
	graphsIdentical(t, got, g)
}

func TestPatchValidation(t *testing.T) {
	g := NewBuilder(3, 1).Build()
	for _, bad := range []Edit{
		{Op: AddEdge, U: -1, V: 0},
		{Op: AddEdge, U: 0, V: 3},
		{Op: AddColor, U: 0, Color: 1},
		{Op: AddColor, U: 3, Color: 0},
		{Op: EditOp(9), U: 0},
	} {
		if _, err := Patch(g, []Edit{bad}); err == nil {
			t.Fatalf("edit %+v: expected validation error", bad)
		}
	}
}

func TestEditOpRoundTrip(t *testing.T) {
	for _, op := range []EditOp{AddEdge, RemoveEdge, AddColor, RemoveColor} {
		got, err := ParseEditOp(op.String())
		if err != nil || got != op {
			t.Fatalf("round trip %v: got %v, %v", op, got, err)
		}
	}
	if _, err := ParseEditOp("bogus"); err == nil {
		t.Fatal("expected error for unknown op")
	}
}

// TestMaxDegreeOnDemand: on star-8k, removing an edge of the hub — the one
// vertex of maximum degree — leaves the maximum uncounted rather than
// scanning n rows in the write; MaxDegree counts it when asked (at once from
// several readers, race-free under -race) and agrees with a rebuild, and so
// does the version that re-adds the edge. A leaf edge elsewhere keeps the
// count carried.
func TestMaxDegreeOnDemand(t *testing.T) {
	const n = 8000
	b := NewBuilder(n, 1)
	for v := 1; v < n; v++ {
		b.AddEdge(0, v)
	}
	b.AddEdge(1, 2)
	star := b.Build()
	if d := star.MaxDegree(); d != n-1 {
		t.Fatalf("star-8k has maximum degree %d, want %d", d, n-1)
	}
	hubEdge := []Edit{{Op: RemoveEdge, U: 0, V: 5}}
	cut, err := Patch(star, hubEdge)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, counted := cut.degreeCount(); counted {
		t.Fatal("removing a hub edge counted the maximum degree: the write scanned the rows")
	}
	got := make(chan int, 4)
	for range cap(got) {
		go func() { got <- cut.MaxDegree() }()
	}
	for range cap(got) {
		if d := <-got; d != n-2 {
			t.Fatalf("after removing a hub edge MaxDegree = %d, want %d", d, n-2)
		}
	}
	if d := rebuildReference(star, hubEdge).MaxDegree(); d != n-2 {
		t.Fatalf("a rebuild has maximum degree %d, want %d", d, n-2)
	}
	back, err := Patch(cut, []Edit{{Op: AddEdge, U: 0, V: 5}})
	if err != nil {
		t.Fatal(err)
	}
	if d := back.MaxDegree(); d != n-1 {
		t.Fatalf("after re-adding the hub edge MaxDegree = %d, want %d", d, n-1)
	}
	leaf, err := Patch(back, []Edit{{Op: RemoveEdge, U: 1, V: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if d, at, counted := leaf.degreeCount(); !counted || d != n-1 || at != 1 {
		t.Fatalf("a leaf edge removal carried (%d, %d, %v), want (%d, 1, true)", d, at, counted, n-1)
	}
}

// TestDegreeAbove: after a hub-edge removal on star-8k leaves the maximum
// uncounted, DegreeAbove stops at the first vertex above its bound — the
// hub, first or last by id — and counts nothing; a bound nothing exceeds
// counts every row, and the count is kept. A carried count answers at once.
func TestDegreeAbove(t *testing.T) {
	const n = 8000
	for _, hub := range []V{0, n - 1} {
		b := NewBuilder(n, 1)
		for v := range n {
			if v != hub {
				b.AddEdge(hub, v)
			}
		}
		star := b.Build()
		if d, above := star.DegreeAbove(8); d != n-1 || !above {
			t.Fatalf("hub %d: star-8k DegreeAbove(8) = (%d, %v), want (%d, true)", hub, d, above, n-1)
		}
		if _, _, counted := star.degreeCount(); counted {
			t.Fatalf("hub %d: DegreeAbove counted the rows of a graph with a row above its bound", hub)
		}
		star.MaxDegree()
		cut, err := Patch(star, []Edit{{Op: RemoveEdge, U: hub, V: (hub + 5) % n}})
		if err != nil {
			t.Fatal(err)
		}
		if _, _, counted := cut.degreeCount(); counted {
			t.Fatal("removing a hub edge carried the maximum degree")
		}
		if d, above := cut.DegreeAbove(8); d != n-2 || !above {
			t.Fatalf("hub %d: after a hub-edge removal DegreeAbove(8) = (%d, %v), want (%d, true)", hub, d, above, n-2)
		}
		if _, _, counted := cut.degreeCount(); counted {
			t.Fatalf("hub %d: DegreeAbove counted every row after a hub-edge removal", hub)
		}
		if d, above := cut.DegreeAbove(n); d != n-2 || above {
			t.Fatalf("hub %d: DegreeAbove(n) = (%d, %v), want (%d, false)", hub, d, above, n-2)
		}
		if d, at, counted := cut.degreeCount(); !counted || d != n-2 || at != 1 {
			t.Fatalf("hub %d: a bound no row exceeds left the count (%d, %d, %v)", hub, d, at, counted)
		}
	}
	// A leaf before the hub: the first vertex above 0 is the leaf.
	b := NewBuilder(4, 0)
	b.AddEdge(0, 3)
	b.AddEdge(1, 3)
	b.AddEdge(2, 3)
	if d, above := b.Build().DegreeAbove(0); d != 1 || !above {
		t.Fatalf("DegreeAbove(0) = (%d, %v), want the first vertex's degree (1, true)", d, above)
	}
}
