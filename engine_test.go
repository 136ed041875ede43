package repro

import (
	"context"
	"testing"

	"repro/internal/conform"
)

// bothKinds builds the same (graph, query) index once per engine kind.
func bothKinds(t *testing.T, g *Graph, q *Query) map[EngineKind]*Index {
	t.Helper()
	out := map[EngineKind]*Index{}
	for _, kind := range []EngineKind{EngineCore, EngineLowDeg} {
		ix, err := Build(context.Background(), g, q, WithParallelism(1), WithEngine(kind))
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if ix.Engine() != kind {
			t.Fatalf("forced %s, index reports %s", kind, ix.Engine())
		}
		out[kind] = ix
	}
	return out
}

// TestEngineContractConformance runs the shared conformance battery
// through the engine value an Index holds, for both kinds: what the facade
// built must meet the full contract (enumeration,
// NextGeq, Test, counts, cursor paging, NextLast), not only the concrete
// engines the internal/conform tests build directly.
func TestEngineContractConformance(t *testing.T) {
	for _, c := range conform.Cases() {
		t.Run(c.Name, func(t *testing.T) {
			g := c.Graph()
			q := MustParseQuery(c.Query, c.Vars...)
			lq, err := q.compile()
			if err != nil {
				t.Fatal(err)
			}
			want := conform.NewNaive(g, lq).Solutions()
			for kind, ix := range bothKinds(t, g, q) {
				eng := ix.eng
				sys := conform.System{
					Name: c.Name + "/facade-" + string(kind), Engine: eng, K: lq.K, N: g.N(),
					NewCursor: func(a []int) conform.Cursor { return eng.IteratorFrom(a) },
				}
				if err := conform.CheckAll(sys, want); err != nil {
					t.Error(err)
				}
			}
		})
	}
}

// TestFacadeHotPathsZeroAllocs pins, in tier 1, that routing through the
// facade, the shared iterator and the locality costs no allocation: for
// either kind, Index.Test, Index.NextLast and Cursor.Next are 0 allocs/op in
// steady state. (Allocation counts are deterministic, so this needs no
// env gate; the tier-3 guards repeat it on the large benchmark graphs.)
func TestFacadeHotPathsZeroAllocs(t *testing.T) {
	g := Generate("grid", 900, GenOptions{Colors: 2, Seed: 16})
	q := MustParseQuery("dist(x,y) > 2 & C0(y)", "x", "y")
	for kind, ix := range bothKinds(t, g, q) {
		n := g.N()
		tuple := make([]int, 2)
		prefix := make([]int, 1)
		zero := make([]int, 2)
		it := ix.IteratorFrom(zero)
		it.Seek(zero) // warm-up: every buffer exists from here on
		if !it.HasNext() {
			t.Fatalf("%s: no solutions", kind)
		}
		v := 0
		ops := []struct {
			name string
			op   func()
		}{
			{"Index.Test", func() { tuple[0], tuple[1] = v%n, (v*31)%n; ix.Test(tuple) }},
			{"Index.NextLast", func() { prefix[0] = v % n; ix.NextLast(prefix, 0) }},
			{"Cursor.Next", func() {
				if _, ok := it.Next(); !ok {
					it.Seek(zero)
				}
			}},
		}
		for _, o := range ops {
			allocs := testing.AllocsPerRun(500, func() { o.op(); v += 17 })
			if allocs != 0 {
				t.Errorf("%s: %s = %.2f allocs/op, want 0", kind, o.name, allocs)
			}
		}
	}
}

// TestLowdegMutationStats: the low-degree engine has no incremental path,
// so every effective batch is a full rebuild — and the unified Stats must
// say so, across the rebuilds, instead of reporting zero forever.
func TestLowdegMutationStats(t *testing.T) {
	ctx := context.Background()
	g := Generate("grid", 400, GenOptions{Colors: 1, Seed: 3})
	q := MustParseQuery("dist(x,y) > 2 & C0(y)", "x", "y")
	ix, err := Build(ctx, g, q, WithEngine(EngineLowDeg))
	if err != nil {
		t.Fatal(err)
	}
	for i, batch := range [][]Edit{
		{RemoveEdge(0, 1)},
		{AddEdge(0, 1), AddColor(7, 0)},
		{RemoveColor(7, 0), AddEdge(0, 399)},
	} {
		next, err := ix.ApplyEdits(ctx, batch)
		if err != nil {
			t.Fatal(err)
		}
		if next == ix || next.Version() != i+1 {
			t.Fatalf("batch %d: effective edit did not produce version %d", i, i+1)
		}
		ix = next
	}
	same, err := ix.ApplyEdits(ctx, []Edit{AddEdge(5, 9), RemoveEdge(5, 9)})
	if err != nil {
		t.Fatal(err)
	}
	if same != ix {
		t.Fatal("identity batch did not return the receiver")
	}
	st := ix.Stats()
	if st.Mutations != 3 || st.MutRebuilds != 3 {
		t.Fatalf("Stats after 3 effective + 1 identity batch: Mutations=%d MutRebuilds=%d, want 3 and 3", st.Mutations, st.MutRebuilds)
	}
	if st.BallEntries == 0 || st.CoverBags != 0 {
		t.Fatalf("rebuilt index is not on the ball locality: %+v", st)
	}
}
