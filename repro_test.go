package repro

import (
	"context"
	"testing"
)

func TestFacadeQuickstart(t *testing.T) {
	g := Generate("grid", 400, GenOptions{Colors: 1, Seed: 1})
	q := MustParseQuery("dist(x,y) > 2 & C0(y)", "x", "y")
	ix, err := Build(context.Background(), g, q)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	ix.Enumerate(func(sol []int) bool {
		if len(sol) != 2 {
			t.Fatalf("bad arity %d", len(sol))
		}
		if !ix.Test(sol) {
			t.Fatalf("enumerated non-solution %v", sol)
		}
		n++
		return n < 200
	})
	if n == 0 {
		t.Fatal("expected some solutions")
	}
	if _, ok := ix.Next([]int{0, 0}); !ok {
		t.Fatal("Next from origin should find the first solution")
	}
}

func TestFacadeDistanceIndex(t *testing.T) {
	g := Generate("rtree", 500, GenOptions{Seed: 3})
	d := BuildDistanceIndex(g, 3)
	if d.Radius() != 3 {
		t.Fatalf("radius %d", d.Radius())
	}
	if !d.Within(5, 5, 0) {
		t.Fatal("reflexivity failed")
	}
}

func TestFacadeDatabaseIndex(t *testing.T) {
	// A small citation-style database: Paper(p), Cites(p,q).
	db := NewDatabase(40)
	db.AddRelation("Cites", 2)
	db.AddRelation("Old", 1)
	for p := 1; p < 40; p++ {
		db.Insert("Cites", p, (p-1)/2)
	}
	for p := 0; p < 10; p++ {
		db.Insert("Old", p)
	}
	q := MustParseQuery("Cites(x,y) & Old(y)", "x", "y")
	ix, err := BuildDatabaseIndex(db, q)
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	ix.Enumerate(func(sol []int) bool {
		x, y := sol[0], sol[1]
		if !(db.Holds("Cites", []int{x, y}) && db.Holds("Old", []int{y})) {
			t.Fatalf("bad solution %v", sol)
		}
		count++
		return true
	})
	// Cites(p, (p-1)/2) with (p-1)/2 < 10 → p ∈ 1..20.
	if count != 20 {
		t.Fatalf("count = %d, want 20", count)
	}
	if !ix.Test([]int{3, 1}) || ix.Test([]int{1, 3}) {
		t.Fatal("Test mismatch on database tuples")
	}
}

func TestFacadeStoringMap(t *testing.T) {
	m := NewMap(1000, 2, 0.3)
	m.Set([]int{5, 7}, 42)
	if v, ok := m.Get([]int{5, 7}); !ok || v != 42 {
		t.Fatal("map roundtrip failed")
	}
	if key, _, ok := m.NextGeq([]int{0, 0}); !ok || key[0] != 5 || key[1] != 7 {
		t.Fatal("successor lookup failed")
	}
}

func TestFacadeIterator(t *testing.T) {
	g := Generate("btree", 300, GenOptions{Colors: 1, Seed: 4})
	q := MustParseQuery("dist(x,y) > 2 & C0(y)", "x", "y")
	ix, err := Build(context.Background(), g, q)
	if err != nil {
		t.Fatal(err)
	}
	it := ix.Iterator()
	count := 0
	var last []int
	for it.HasNext() {
		s, _ := it.Next()
		if !ix.Test(s) {
			t.Fatalf("iterator produced non-solution %v", s)
		}
		// Next reuses its buffer; copy to retain across further calls.
		last = append(last[:0], s...)
		count++
		if count >= 500 {
			break
		}
	}
	if count == 0 {
		t.Fatal("no solutions")
	}
	// Re-seek to the last solution: it must come back first.
	it.Seek(last)
	s, ok := it.Next()
	if !ok || s[0] != last[0] || s[1] != last[1] {
		t.Fatalf("Seek(%v) returned %v,%v", last, s, ok)
	}
}

func TestFacadeFastCount(t *testing.T) {
	g := Generate("grid", 196, GenOptions{Colors: 1, Seed: 5})
	q := MustParseQuery("dist(x,y) > 2 & C0(y)", "x", "y")
	ix, err := Build(context.Background(), g, q)
	if err != nil {
		t.Fatal(err)
	}
	if ix.FastCount() != ix.Count() {
		t.Fatalf("FastCount %d != Count %d", ix.FastCount(), ix.Count())
	}
}

func TestFacadeCompileError(t *testing.T) {
	g := Generate("path", 20, GenOptions{})
	// Unanchored quantifier: not compilable; the error must be surfaced,
	// not a wrong answer.
	q := MustParseQuery("exists z (C0(z) | E(x,z))", "x")
	if _, err := Build(context.Background(), g, q); err == nil {
		t.Fatal("expected a compile error for a non-local query")
	}
}

func TestFacadeGraphClasses(t *testing.T) {
	if len(GraphClasses()) < 10 {
		t.Fatal("expected the full generator catalogue")
	}
	for _, c := range GraphClasses() {
		g := Generate(c, 50, GenOptions{Seed: 2})
		if g.N() == 0 {
			t.Fatalf("%s: empty graph", c)
		}
	}
}
