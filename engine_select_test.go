package repro

import (
	"bytes"
	"context"
	"testing"
)

// The engine-selection layer routes index builds between the core
// nowhere-dense engine and the lowdeg bounded-degree engine. These tests
// pin the routing table: the default stays core (so nothing existing
// changes behavior), forced kinds are honored unconditionally, auto
// routes on the measured degree/degeneracy estimates, and a high-degree
// graph can never silently land on lowdeg.

func selTestQuery() *Query { return MustParseQuery("dist(x,y) > 2 & C0(y)", "x", "y") }

// TestSelectEngineRouting pins estimator → decision for each graph class
// on both sides of the thresholds.
func TestSelectEngineRouting(t *testing.T) {
	cases := []struct {
		name    string
		class   string
		n       int
		req     EngineKind
		want    EngineKind
		measure bool // auto examined the graph → estimates ≥ 0
	}{
		{"default is core", "bdeg", 200, "", EngineCore, false},
		{"explicit core", "bdeg", 200, EngineCore, EngineCore, false},
		{"forced lowdeg", "clique", 60, EngineLowDeg, EngineLowDeg, false},
		{"auto routes bounded degree to lowdeg", "bdeg", 200, EngineAuto, EngineLowDeg, true},
		{"auto routes grid to lowdeg", "grid", 400, EngineAuto, EngineLowDeg, true},
		{"auto keeps star on core", "star", 200, EngineAuto, EngineCore, true},
		{"auto keeps clique on core", "clique", 60, EngineAuto, EngineCore, true},
		{"auto keeps dense on core", "dense", 120, EngineAuto, EngineCore, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			g := Generate(c.class, c.n, GenOptions{Seed: 11, Colors: 2})
			sel, err := SelectEngine(g, c.req)
			if err != nil {
				t.Fatal(err)
			}
			if sel.Chosen != c.want {
				t.Fatalf("SelectEngine(%s, %q) chose %q, want %q (sel %+v)", c.class, c.req, sel.Chosen, c.want, sel)
			}
			if sel.Requested != c.req {
				t.Fatalf("Requested = %q, want %q", sel.Requested, c.req)
			}
			if c.measure && sel.MaxDegree < 0 {
				t.Fatalf("auto selection did not measure the degree: %+v", sel)
			}
			if !c.measure && (sel.MaxDegree != -1 || sel.Degeneracy != -1) {
				t.Fatalf("forced selection should not measure: %+v", sel)
			}
			if sel.DegreeLimit != AutoMaxDegree || sel.DegeneracyLimit != AutoMaxDegeneracy {
				t.Fatalf("limits not recorded: %+v", sel)
			}
		})
	}
}

// TestSelectEngineHighDegreeNeverLowdeg is the regression guard behind
// the routing table: no matter the seed or size, a graph whose maximum
// degree exceeds the threshold must never route to the low-degree engine
// under auto — its delay bound is exponential in the degree.
func TestSelectEngineHighDegreeNeverLowdeg(t *testing.T) {
	for _, class := range []string{"star", "clique", "dense", "subclique"} {
		for seed := int64(1); seed <= 5; seed++ {
			for _, n := range []int{40, 120, 300} {
				g := Generate(class, n, GenOptions{Seed: seed, Colors: 2})
				if g.MaxDegree() <= AutoMaxDegree {
					// Tiny instances of a dense class can be legitimately
					// low-degree; the guard is about high-degree graphs.
					continue
				}
				sel, err := SelectEngine(g, EngineAuto)
				if err != nil {
					t.Fatal(err)
				}
				if sel.Chosen == EngineLowDeg {
					t.Fatalf("%s n=%d seed=%d (degree %d) routed to lowdeg: %+v", class, n, seed, g.MaxDegree(), sel)
				}
			}
		}
	}
}

// TestSelectEngineUnknownKind: a bogus kind is a build-time error, not a
// silent fallback.
func TestSelectEngineUnknownKind(t *testing.T) {
	g := Generate("path", 20, GenOptions{})
	if _, err := SelectEngine(g, "turbo"); err == nil {
		t.Fatal("expected an error for an unknown engine kind")
	}
	if _, err := Build(context.Background(), g, selTestQuery(), WithEngine("turbo")); err == nil {
		t.Fatal("Build accepted an unknown engine kind")
	}
}

// TestWithEngineForcedOverride: WithEngine(EngineLowDeg) builds a lowdeg
// index even for a graph auto would refuse, and the two engines agree on
// the answer set there (correctness does not depend on the degree bound —
// only the delay guarantee does).
func TestWithEngineForcedOverride(t *testing.T) {
	g := Generate("dense", 60, GenOptions{Seed: 3, Colors: 2})
	if g.MaxDegree() <= AutoMaxDegree {
		t.Fatalf("test premise broken: dense graph has degree %d", g.MaxDegree())
	}
	q := selTestQuery()
	forced, err := Build(context.Background(), g, q, WithEngine(EngineLowDeg))
	if err != nil {
		t.Fatal(err)
	}
	if forced.Engine() != EngineLowDeg {
		t.Fatalf("forced build is backed by %q", forced.Engine())
	}
	if sel := forced.Selection(); sel.Chosen != EngineLowDeg || sel.Requested != EngineLowDeg {
		t.Fatalf("selection not recorded: %+v", sel)
	}
	ref, err := Build(context.Background(), g, q)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := forced.Count(), ref.Count(); got != want {
		t.Fatalf("forced lowdeg count %d != core count %d", got, want)
	}
}

// TestBuildAutoSelectionSurfaces: an auto build on a bounded-degree graph
// lands on lowdeg, records its estimates, counts correctly, and snapshots
// to a file that restores as what it is.
func TestBuildAutoSelectionSurfaces(t *testing.T) {
	g := Generate("bdeg", 300, GenOptions{Seed: 7, Colors: 2})
	q := selTestQuery()
	ix, err := Build(context.Background(), g, q, WithEngine(EngineAuto))
	if err != nil {
		t.Fatal(err)
	}
	if ix.Engine() != EngineLowDeg {
		t.Fatalf("auto build on bdeg is backed by %q", ix.Engine())
	}
	sel := ix.Selection()
	// A maximum degree within the degeneracy limit settles the choice; the
	// degeneracy is measured only above it (the king grid).
	if sel.MaxDegree < 1 || sel.MaxDegree > AutoMaxDegeneracy || sel.Degeneracy != -1 {
		t.Fatalf("implausible estimates: %+v", sel)
	}
	king, err := SelectEngine(Generate("kinggrid", 100, GenOptions{}), EngineAuto)
	if err != nil || king.Chosen != EngineLowDeg || king.MaxDegree != 8 || king.Degeneracy < 1 || king.Degeneracy > AutoMaxDegeneracy {
		t.Fatalf("king grid: %+v, %v", king, err)
	}
	ref, err := Build(context.Background(), g, q)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := ix.Count(), ref.Count(); got != want {
		t.Fatalf("auto-selected engine count %d != core count %d", got, want)
	}
	n, fast := ix.SolutionCount()
	if n != ref.Count() || !fast {
		t.Fatalf("SolutionCount = (%d, %v), want (%d, true)", n, fast, ref.Count())
	}
	var file bytes.Buffer
	if err := ix.WriteSnapshot(&file); err != nil {
		t.Fatal(err)
	}
	restored, err := ReadIndexSnapshot(file.Bytes(), WithEngine(EngineAuto))
	if err != nil {
		t.Fatal(err)
	}
	if rs := restored.Selection(); restored.Engine() != EngineLowDeg || rs.Requested != EngineAuto || rs.MaxDegree != -1 {
		t.Fatalf("restored selection %+v", rs)
	}
	if got := restored.Count(); got != n {
		t.Fatalf("restored index counts %d, built %d", got, n)
	}
	// The cursor contract holds across engines through the facade type.
	it := ix.Iterator()
	seen := 0
	for it.HasNext() {
		if _, ok := it.Next(); !ok {
			break
		}
		seen++
	}
	if seen != n {
		t.Fatalf("cursor yielded %d solutions, SolutionCount says %d", seen, n)
	}
}

// TestLowDegIndexMutation: ApplyEdits on a lowdeg-backed index makes a new
// version for real edits, returns the receiver for identity batches, and
// answers for the patched graph.
func TestLowDegIndexMutation(t *testing.T) {
	g := Generate("path", 50, GenOptions{Seed: 2, Colors: 2})
	q := selTestQuery()
	ix, err := Build(context.Background(), g, q, WithEngine(EngineLowDeg))
	if err != nil {
		t.Fatal(err)
	}
	ix2, err := ix.ApplyEdits(context.Background(), []Edit{AddEdge(0, 25)})
	if err != nil {
		t.Fatal(err)
	}
	if ix2 == ix || ix2.Version() != 1 || ix2.Engine() != EngineLowDeg {
		t.Fatalf("real edit: got same index or wrong version/engine (v%d, %q)", ix2.Version(), ix2.Engine())
	}
	g2, err := PatchGraph(g, []Edit{AddEdge(0, 25)})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Build(context.Background(), g2, q)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := ix2.Count(), ref.Count(); got != want {
		t.Fatalf("mutated lowdeg count %d != rebuilt core count %d", got, want)
	}
	ix3, err := ix.ApplyEdits(context.Background(), []Edit{AddEdge(1, 30), RemoveEdge(1, 30)})
	if err != nil {
		t.Fatal(err)
	}
	if ix3 != ix {
		t.Fatal("identity batch should return the receiver")
	}
}

// TestLowDegIndexStats: Index.Stats carries the shared fields and the ball
// structure of a lowdeg index, and no cover/skip structure; a core index
// is the other way round.
func TestLowDegIndexStats(t *testing.T) {
	g := Generate("bdeg", 150, GenOptions{Seed: 4, Colors: 2})
	ix, err := Build(context.Background(), g, selTestQuery(), WithEngine(EngineLowDeg))
	if err != nil {
		t.Fatal(err)
	}
	ix.Count()
	st := ix.Stats()
	if st.BallEntries < g.N() || st.CompEntries != st.BallEntries || st.MaxDegree != g.MaxDegree() {
		t.Fatalf("ball structure missing from the stats of a lowdeg index: %+v", st)
	}
	if st.Candidates == 0 || st.LocalEvals == 0 || len(st.StarterSizes) != 2 {
		t.Fatalf("shared fields not filled: %+v", st)
	}
	if st.CoverBags != 0 || st.SkipPointers != 0 {
		t.Fatalf("lowdeg index reports cover/skip structure: %+v", st)
	}
	core, err := Build(context.Background(), g, selTestQuery())
	if err != nil {
		t.Fatal(err)
	}
	if cs := core.Stats(); cs.BallEntries != 0 || cs.CoverBags == 0 {
		t.Fatalf("core index reports ball structure: %+v", cs)
	}
}

// TestParseCountQuery: the `#x̄: φ` form round-trips into a buildable
// query whose SolutionCount matches the enumeration count.
func TestParseCountQuery(t *testing.T) {
	q, err := ParseCountQuery("#x,y: dist(x,y) > 2 & C0(y)")
	if err != nil {
		t.Fatal(err)
	}
	if q.Arity() != 2 {
		t.Fatalf("arity %d, want 2", q.Arity())
	}
	g := Generate("grid", 200, GenOptions{Seed: 1, Colors: 2})
	ix, err := Build(context.Background(), g, q)
	if err != nil {
		t.Fatal(err)
	}
	n, _ := ix.SolutionCount()
	if want := ix.Count(); n != want {
		t.Fatalf("SolutionCount %d != Count %d", n, want)
	}
	// Second call hits the cache and must agree.
	if n2, _ := ix.SolutionCount(); n2 != n {
		t.Fatalf("cached SolutionCount changed: %d then %d", n, n2)
	}
	if _, err := ParseCountQuery("dist(x,y) > 2"); err == nil {
		t.Fatal("missing '#' should be rejected")
	}
	if _, err := ParseCountQuery("#x: C0(y)"); err == nil {
		t.Fatal("undeclared free variable should be rejected")
	}
}

// TestAutoSelectionAfterHubEdgeRemoval: on star-8k (the graph of
// graph.TestMaxDegreeOnDemand) a write that takes an edge from the hub, the
// one vertex of maximum degree, leaves the new version's maximum uncounted.
// Its auto selection asks only whether some row is above AutoMaxDegree: the
// hub, vertex 0, answers that (graph.TestDegreeAbove pins that nothing
// else is counted), so the write stays on core with the hub's degree as its
// estimate, and the degeneracy is not measured.
func TestAutoSelectionAfterHubEdgeRemoval(t *testing.T) {
	const n = 8000
	b := NewGraphBuilder(n, 1)
	for v := 1; v < n; v++ {
		b.AddEdge(0, v)
	}
	b.AddEdge(1, 2)
	b.SetColor(3, 0)
	ctx := context.Background()
	ix, err := Build(ctx, b.Build(), selTestQuery(), WithEngine(EngineAuto))
	if err != nil {
		t.Fatal(err)
	}
	if sel := ix.Selection(); ix.Engine() != EngineCore || sel.MaxDegree != n-1 {
		t.Fatalf("auto build on star-8k: engine %s, selection %+v", ix.Engine(), sel)
	}
	next, err := ix.ApplyEdits(ctx, []Edit{RemoveEdge(0, 5)})
	if err != nil {
		t.Fatal(err)
	}
	sel := next.Selection()
	if next.Engine() != EngineCore || sel.Chosen != EngineCore || sel.MaxDegree != n-2 || sel.Degeneracy != -1 {
		t.Fatalf("after a hub-edge removal: engine %s, selection %+v", next.Engine(), sel)
	}
}
