package splitter

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

func TestSplitterWinsOnEdgeless(t *testing.T) {
	g := graph.NewBuilder(20, 0).Build()
	res := Play(g, 2, BallCenter{}, MaxDegreeConnector{}, 5)
	if !res.SplitterWon || res.Rounds != 1 {
		t.Fatalf("edgeless: %+v, want a 1-round win", res)
	}
}

func TestSplitterWinsOnStarInTwoRounds(t *testing.T) {
	g := gen.Generate(gen.Star, 200, gen.Options{})
	res := Play(g, 2, BallCenter{}, MaxDegreeConnector{}, 5)
	if !res.SplitterWon || res.Rounds > 2 {
		t.Fatalf("star: %+v, want a ≤2-round win", res)
	}
}

func TestSplitterWinsOnNowhereDenseClasses(t *testing.T) {
	for _, class := range []gen.Class{gen.Path, gen.Cycle, gen.Caterpillar,
		gen.BalancedTree, gen.RandomTree, gen.Grid, gen.KingGrid,
		gen.BoundedDegree, gen.SparseRandom} {
		g := gen.Generate(class, 500, gen.Options{Seed: 7})
		lam := Lambda(g, 2, BallCenter{}, 64)
		if lam >= 64 {
			t.Errorf("%s: Splitter did not win within 64 rounds", class)
		}
	}
}

// TestSplitterLambdaIndependentOfN is the heart of Theorem 4.6
// (EXPERIMENTS.md E4): λ(r) must not grow with the graph, for fixed r, on
// any nowhere dense class.
func TestSplitterLambdaIndependentOfN(t *testing.T) {
	for _, class := range gen.Classes {
		if !gen.NowhereDense(class) {
			continue
		}
		small := Lambda(gen.Generate(class, 200, gen.Options{Seed: 1}), 2, BallCenter{}, 64)
		large := Lambda(gen.Generate(class, 3200, gen.Options{Seed: 1}), 2, BallCenter{}, 64)
		t.Logf("%s: λ(2) = %d at n = 200, %d at n = 3200", class, small, large)
		if large > small+2 {
			t.Errorf("%s: λ grew from %d (n=200) to %d (n=3200)", class, small, large)
		}
	}
}

// TestSplitterStruggleOnClique: on K_n the arena loses one vertex per
// round, so Connector survives any fixed budget once n is large — the
// negative control for the game characterization.
func TestSplitterStruggleOnClique(t *testing.T) {
	g := gen.Generate(gen.Clique, 40, gen.Options{})
	res := Play(g, 1, BallCenter{}, MaxDegreeConnector{}, 10)
	if res.SplitterWon {
		t.Fatalf("Splitter should not clear K_40 within 10 rounds: %+v", res)
	}
}

func TestForestDepthStrategy(t *testing.T) {
	for _, class := range []gen.Class{gen.Path, gen.BalancedTree, gen.RandomTree, gen.Caterpillar, gen.Star} {
		g := gen.Generate(class, 400, gen.Options{Seed: 3})
		strat := NewForestDepth(g)
		res := Play(g, 2, strat, MaxDegreeConnector{}, 64)
		if !res.SplitterWon {
			t.Errorf("%s: forest strategy failed to win", class)
		}
	}
}

func TestMaxDegreeStrategyOnStar(t *testing.T) {
	g := gen.Generate(gen.Star, 100, gen.Options{})
	res := Play(g, 2, MaxDegree{}, MaxDegreeConnector{}, 3)
	if !res.SplitterWon || res.Rounds > 2 {
		t.Fatalf("star with MaxDegree: %+v", res)
	}
}

func TestStrategyAnswerInBall(t *testing.T) {
	for _, class := range []gen.Class{gen.Grid, gen.RandomTree, gen.SparseRandom} {
		g := gen.Generate(class, 300, gen.Options{Seed: 5})
		bfs := graph.NewBFS(g)
		for _, s := range []Strategy{BallCenter{}, MaxDegree{}} {
			for c := 0; c < g.N(); c += 37 {
				ans := s.Answer(g, c, 2)
				if bfs.Distance(c, ans, 2) < 0 {
					t.Fatalf("%s: answer %d outside N_2(%d)", class, ans, c)
				}
			}
		}
	}
}
