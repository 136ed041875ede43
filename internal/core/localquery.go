// Package core implements the paper's main contribution (Theorem 2.3 /
// Theorem 5.1): after a pseudo-linear preprocessing of a colored graph G
// and a k-ary query, upon input of any tuple ā the lexicographically
// smallest solution ≥ ā is computed in (pseudo-)constant time. Testing
// (Corollary 2.4) and constant-delay enumeration in lexicographic order
// (Corollary 2.5) are derived exactly as in the paper.
//
// Queries are consumed in the decomposed shape that the Rank-Preserving
// Normal Form Theorem (Theorem 5.4) produces: a disjunction over
// r-distance types τ of clauses, each clause attaching to every connected
// component I of τ a local formula ψ_I evaluated in the neighborhood of
// x̄_I (see LocalQuery). Compile converts a practical FO⁺ fragment into
// this shape; DESIGN.md §3 documents the substitution.
//
// There is one Engine. What it asks about distances — dist ≤ R, the next
// far starter (Case I), the balls of Case II — goes through the locality
// interface (locality.go), which has two implementations: the paper's
// distance index + cover + kernels + skip pointers (Preprocess), and
// sorted per-vertex balls for bounded-degree graphs (PreprocessBalls,
// published as internal/lowdeg).
package core

import (
	"fmt"

	"repro/internal/fo"
	"repro/internal/graph"
)

// PosVar returns the canonical variable name for tuple position p (0-based):
// x0, x1, … Local formulas of a LocalQuery must use these names.
func PosVar(p int) fo.Var { return fo.Var(fmt.Sprintf("x%d", p)) }

// ComponentFormula is the ψ_I of one clause: a formula over the positions
// of one connected component of the clause's distance type, interpreted
// *locally* — quantifiers and atoms range over the induced substructure
// G[N_ρ(ā_I)], where ρ is the query's LocalRadius.
type ComponentFormula struct {
	// Positions is the component I, sorted ascending.
	Positions []int
	// Psi is the formula; its free variables must be {PosVar(p) : p ∈ Positions}.
	Psi fo.Formula
}

// Clause is one (τ, i) pair of Theorem 5.4: a tuple ā matches the clause
// iff its R-distance type equals Type exactly and every component formula
// holds locally.
type Clause struct {
	Type   *fo.DistType
	Locals []ComponentFormula // one per connected component of Type
}

// Guard is an optional sentence (no free variables) attached to a clause —
// the analogue of the Boolean combinations ξ^i_τ of independence sentences
// in Theorem 5.4. It is evaluated once on the whole graph during
// preprocessing; clauses whose guard fails are dropped.
type Guard struct {
	Sentence fo.Formula
	Negated  bool
}

// LocalQuery is a k-ary query in the paper's decomposed normal form.
type LocalQuery struct {
	// K is the arity.
	K int
	// R is the distance-type threshold r: Type edges mean dist ≤ R, and
	// positions in different components are at distance > R.
	R int
	// LocalRadius ρ is the locality radius of the component formulas:
	// ψ_I is evaluated in G[N_ρ(ā_I)]. ρ ≥ R is typical.
	LocalRadius int
	// Clauses are the disjuncts; a tuple is a solution iff it matches at
	// least one clause. Clauses with identical Type are allowed (their
	// results are unioned).
	Clauses []Clause
	// Guards, if non-nil, is indexed parallel to Clauses.
	Guards []*Guard
	// Guarded declares that every quantifier of every component formula is
	// witness-guarded within LocalRadius of the free variables (certified
	// by Compile's reach analysis). The engine may then evaluate component
	// formulas on any induced superset of the ρ-ball — enabling shared
	// per-anchor evaluation — because all three domains (global graph,
	// exact ball, superset) give identical answers. Hand-built queries
	// default to false and get the exact-ball semantics of EvalReference.
	Guarded bool
}

// Validate checks structural well-formedness: clause types have arity K,
// components partition the positions, and each ψ_I uses exactly the
// component's position variables.
func (q *LocalQuery) Validate() error {
	if q.K < 1 {
		return fmt.Errorf("core: arity %d < 1", q.K)
	}
	if q.R < 1 {
		return fmt.Errorf("core: distance threshold R=%d < 1", q.R)
	}
	if q.LocalRadius < 0 {
		return fmt.Errorf("core: negative LocalRadius")
	}
	if q.Guards != nil && len(q.Guards) != len(q.Clauses) {
		return fmt.Errorf("core: %d guards for %d clauses", len(q.Guards), len(q.Clauses))
	}
	for ci, cl := range q.Clauses {
		if cl.Type == nil || cl.Type.K != q.K {
			return fmt.Errorf("core: clause %d: distance type arity mismatch", ci)
		}
		comps := cl.Type.Components()
		if len(comps) != len(cl.Locals) {
			return fmt.Errorf("core: clause %d: %d components but %d local formulas",
				ci, len(comps), len(cl.Locals))
		}
		for li, lf := range cl.Locals {
			if !equalIntSlices(comps[li], lf.Positions) {
				return fmt.Errorf("core: clause %d local %d: positions %v do not match component %v",
					ci, li, lf.Positions, comps[li])
			}
			want := map[fo.Var]bool{}
			for _, p := range lf.Positions {
				want[PosVar(p)] = true
			}
			for _, v := range fo.FreeVars(lf.Psi) {
				if !want[v] {
					return fmt.Errorf("core: clause %d local %d: unexpected free variable %s", ci, li, v)
				}
			}
		}
	}
	return nil
}

// MakeClause builds a clause for the given distance type, deriving the
// component partition from the type and pairing each component with the
// formula from psis whose free variables live in it. Components without a
// formula get ⊤.
func MakeClause(t *fo.DistType, psis ...fo.Formula) (Clause, error) {
	comps := t.Components()
	cl := Clause{Type: t, Locals: make([]ComponentFormula, len(comps))}
	for i, comp := range comps {
		cl.Locals[i] = ComponentFormula{Positions: comp, Psi: fo.Truth{Value: true}}
	}
	posToComp := map[int]int{}
	for i, comp := range comps {
		for _, p := range comp {
			posToComp[p] = i
		}
	}
	for _, psi := range psis {
		fv := fo.FreeVars(psi)
		if len(fv) == 0 {
			return Clause{}, fmt.Errorf("core: sentence %s cannot be a component formula; use a Guard", psi)
		}
		comp := -1
		for _, v := range fv {
			var p int
			if _, err := fmt.Sscanf(string(v), "x%d", &p); err != nil {
				return Clause{}, fmt.Errorf("core: variable %s is not a position variable", v)
			}
			ci, ok := posToComp[p]
			if !ok {
				return Clause{}, fmt.Errorf("core: variable %s out of range", v)
			}
			if comp == -1 {
				comp = ci
			} else if comp != ci {
				return Clause{}, fmt.Errorf("core: formula %s spans distance-type components", psi)
			}
		}
		cl.Locals[comp].Psi = fo.AndOf(cl.Locals[comp].Psi, psi)
	}
	return cl, nil
}

// EvalReference is the slow, obviously correct semantics of a LocalQuery,
// used as the oracle in tests and by the naive baselines: the distance type
// is computed by BFS and every ψ_I is evaluated in the induced ball
// G[N_ρ(ā_I)].
func EvalReference(g *graph.Graph, q *LocalQuery, a []graph.V) bool {
	if len(a) != q.K {
		panic(fmt.Sprintf("core: tuple arity %d, want %d", len(a), q.K))
	}
	bfs := graph.NewBFS(g)
	tester := fo.NewBFSDistTester(g)
	typ := fo.TypeOf(tester, a, q.R)
	for ci, cl := range q.Clauses {
		if !typ.Equal(cl.Type) {
			continue
		}
		if q.Guards != nil && q.Guards[ci] != nil {
			gd := q.Guards[ci]
			holds := fo.NewEvaluator(g).Eval(gd.Sentence, fo.Env{})
			if holds == gd.Negated {
				continue
			}
		}
		ok := true
		for _, lf := range cl.Locals {
			if !evalLocalReference(g, bfs, q.LocalRadius, lf, a) {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

func evalLocalReference(g *graph.Graph, bfs *graph.BFS, rho int, lf ComponentFormula, a []graph.V) bool {
	srcs := make([]graph.V, len(lf.Positions))
	for i, p := range lf.Positions {
		srcs[i] = a[p]
	}
	ball := bfs.BallMulti(srcs, rho)
	vs := make([]graph.V, len(ball))
	for i, v := range ball {
		vs[i] = int(v)
	}
	sub := graph.Induce(g, vs)
	ev := fo.NewEvaluator(sub.G)
	env := fo.Env{}
	for i, p := range lf.Positions {
		env[PosVar(p)] = sub.Local(srcs[i])
	}
	return ev.Eval(lf.Psi, env)
}

func equalIntSlices(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
