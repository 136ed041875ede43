package graph

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func ladder(n int) *Graph {
	b := NewBuilder(2*n, 1)
	for i := 0; i < n; i++ {
		b.AddEdge(2*i, 2*i+1)
		if i+1 < n {
			b.AddEdge(2*i, 2*(i+1))
			b.AddEdge(2*i+1, 2*(i+1)+1)
		}
		b.SetColor(2*i, 0)
	}
	return b.Build()
}

func TestBuilderDedupAndLoops(t *testing.T) {
	b := NewBuilder(3, 0)
	b.AddEdge(0, 1)
	b.AddEdge(1, 0)
	b.AddEdge(0, 1)
	b.AddEdge(2, 2) // self-loop dropped
	g := b.Build()
	if g.M() != 1 {
		t.Fatalf("M = %d, want 1", g.M())
	}
	if g.Degree(2) != 0 {
		t.Fatal("self-loop not dropped")
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Fatal("edge symmetry broken")
	}
	if g.HasEdge(0, 2) || g.HasEdge(0, 5) || g.HasEdge(-1, 0) {
		t.Fatal("phantom edges")
	}
}

func TestNeighborsSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	b := NewBuilder(50, 0)
	for i := 0; i < 200; i++ {
		b.AddEdge(rng.Intn(50), rng.Intn(50))
	}
	g := b.Build()
	for v := 0; v < g.N(); v++ {
		ns := g.Neighbors(v)
		for i := 1; i < len(ns); i++ {
			if ns[i-1] >= ns[i] {
				t.Fatalf("vertex %d: neighbors not strictly sorted: %v", v, ns)
			}
		}
	}
}

func TestBFSBall(t *testing.T) {
	g := ladder(10)
	bfs := NewBFS(g)
	ball := bfs.Ball(0, 2)
	want := map[V]int{0: 0, 1: 1, 2: 1, 3: 2, 4: 2}
	if len(ball) != len(want) {
		t.Fatalf("ball = %v", ball)
	}
	for _, v := range ball {
		if bfs.Dist(int(v)) != want[int(v)] {
			t.Fatalf("dist(%d) = %d, want %d", v, bfs.Dist(int(v)), want[int(v)])
		}
	}
}

func TestBFSDistanceTruncation(t *testing.T) {
	g := ladder(20)
	bfs := NewBFS(g)
	if d := bfs.Distance(0, 38, 5); d != -1 {
		t.Fatalf("truncated distance should be -1, got %d", d)
	}
	if d := bfs.Distance(0, 4, 5); d != 2 {
		t.Fatalf("distance(0,4) = %d, want 2", d)
	}
	if d := bfs.Distance(7, 7, 0); d != 0 {
		t.Fatalf("self distance = %d", d)
	}
}

func TestBallMulti(t *testing.T) {
	g := ladder(10)
	bfs := NewBFS(g)
	ball := bfs.BallMulti([]V{0, 18}, 1)
	seen := map[V]bool{}
	for _, v := range ball {
		seen[int(v)] = true
	}
	for _, v := range []V{0, 1, 2, 18, 19, 16} {
		if !seen[v] {
			t.Fatalf("vertex %d missing from multi-ball: %v", v, ball)
		}
	}
}

func TestInduceMapping(t *testing.T) {
	g := ladder(5)
	sub := Induce(g, []V{4, 2, 0, 2}) // unsorted with duplicate
	if sub.G.N() != 3 {
		t.Fatalf("|sub| = %d", sub.G.N())
	}
	if sub.Orig[0] != 0 || sub.Orig[1] != 2 || sub.Orig[2] != 4 {
		t.Fatalf("Orig = %v", sub.Orig)
	}
	if sub.Local(2) != 1 || sub.Local(3) != -1 {
		t.Fatal("Local mapping wrong")
	}
	// Edges 0–2 and 2–4 exist in the ladder's even rail.
	if !sub.G.HasEdge(0, 1) || !sub.G.HasEdge(1, 2) || sub.G.HasEdge(0, 2) {
		t.Fatal("induced edges wrong")
	}
	// Colors carry over: even originals are colored.
	for i, o := range sub.Orig {
		if sub.G.HasColor(i, 0) != g.HasColor(o, 0) {
			t.Fatalf("color mismatch at local %d", i)
		}
	}
}

func TestRemoveVertex(t *testing.T) {
	g := ladder(3)
	sub := RemoveVertex(g, 2)
	if sub.G.N() != 5 || sub.Contains(2) {
		t.Fatal("vertex not removed")
	}
	// 0 was adjacent to 2; in the remainder 0 keeps only edge to 1.
	l0 := sub.Local(0)
	if sub.G.Degree(l0) != 1 {
		t.Fatalf("degree of 0 after removal = %d", sub.G.Degree(l0))
	}
}

func TestAddColors(t *testing.T) {
	g := ladder(4)
	g2 := AddColors(g, []V{1, 3}, []V{0})
	if g2.NumColors() != 3 {
		t.Fatalf("colors = %d", g2.NumColors())
	}
	if !g2.HasColor(1, 1) || !g2.HasColor(3, 1) || g2.HasColor(2, 1) {
		t.Fatal("first new class wrong")
	}
	if !g2.HasColor(0, 2) || g2.HasColor(1, 2) {
		t.Fatal("second new class wrong")
	}
	if !g2.HasColor(0, 0) {
		t.Fatal("old colors lost")
	}
	if g2.M() != g.M() {
		t.Fatal("edges changed")
	}
}

func TestConnectedComponents(t *testing.T) {
	b := NewBuilder(7, 0)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(4, 5)
	g := b.Build()
	comps := ConnectedComponents(g)
	if len(comps) != 4 {
		t.Fatalf("components = %v", comps)
	}
	if len(comps[0]) != 3 || comps[0][2] != 2 {
		t.Fatalf("first component = %v", comps[0])
	}
}

func TestGraphIORoundTrip(t *testing.T) {
	g := ladder(6)
	var buf bytes.Buffer
	if err := Write(&buf, g); err != nil {
		t.Fatal(err)
	}
	h, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if h.N() != g.N() || h.M() != g.M() || h.NumColors() != g.NumColors() {
		t.Fatalf("shape mismatch: %v vs %v", h, g)
	}
	for v := 0; v < g.N(); v++ {
		if h.Degree(v) != g.Degree(v) || h.HasColor(v, 0) != g.HasColor(v, 0) {
			t.Fatalf("vertex %d mismatch", v)
		}
	}
}

func TestGraphReadErrors(t *testing.T) {
	for _, src := range []string{
		"",
		"e 0 1",
		"graph 2 0\ne 0 5",
		"graph 2 0\nc 0 0",
		"graph x y",
		"graph 2 1\nbogus 1 2",
		"graph 2 0\ngraph 2 0",
		"graph 2 16385", // more colors than a graph holds
	} {
		if _, err := Read(bytes.NewBufferString(src)); err == nil {
			t.Errorf("Read(%q): expected error", src)
		}
	}
}

// TestQuickBFSDistanceSymmetric: distance is symmetric on random graphs.
func TestQuickBFSDistanceSymmetric(t *testing.T) {
	f := func(seed int64, a, b uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 30
		bld := NewBuilder(n, 0)
		for i := 0; i < 45; i++ {
			bld.AddEdge(rng.Intn(n), rng.Intn(n))
		}
		g := bld.Build()
		bfs := NewBFS(g)
		x, y := int(a)%n, int(b)%n
		return bfs.Distance(x, y, n) == bfs.Distance(y, x, n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickInducePreservesDistances: distances in an induced ball around a
// vertex agree with global distances up to the ball radius.
func TestQuickInducePreservesDistances(t *testing.T) {
	f := func(seed int64, src uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 40
		bld := NewBuilder(n, 0)
		for i := 0; i < 60; i++ {
			bld.AddEdge(rng.Intn(n), rng.Intn(n))
		}
		g := bld.Build()
		bfs := NewBFS(g)
		s := int(src) % n
		const r = 3
		ball := bfs.Ball(s, r)
		vs := make([]V, len(ball))
		dists := map[V]int{}
		for i, v := range ball {
			vs[i] = int(v)
			dists[int(v)] = bfs.Dist(int(v))
		}
		sub := Induce(g, vs)
		sbfs := NewBFS(sub.G)
		ls := sub.Local(s)
		for _, v := range vs {
			if got := sbfs.Distance(ls, sub.Local(v), r); got != dists[v] {
				return false
			}
			// Distance state is per-search; recompute next iteration.
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestBitset(t *testing.T) {
	b := NewBitset(130)
	b.Set(0)
	b.Set(64)
	b.Set(129)
	for _, i := range []int{0, 64, 129} {
		if !b.Has(i) {
			t.Fatalf("bit %d missing", i)
		}
	}
	if b.Has(1) || b.Has(128) {
		t.Fatal("phantom bits")
	}
	b.Clear(64)
	if b.Has(64) {
		t.Fatal("clear failed")
	}
	c := b.Clone()
	c.Set(5)
	if b.Has(5) {
		t.Fatal("clone aliases original")
	}
	if NewBitset(10).Empty() != true || b.Empty() {
		t.Fatal("Empty wrong")
	}
	var nilSet Bitset
	if nilSet.Has(3) {
		t.Fatal("nil bitset should be empty")
	}
}
