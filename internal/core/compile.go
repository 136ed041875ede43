package core

import (
	"fmt"

	"repro/internal/fo"
)

// CompileOptions tunes Compile.
type CompileOptions struct {
	// R overrides the distance-type threshold (default: the largest
	// distance constant of the formula, at least 1).
	R int
	// LocalRadius overrides ρ (default: (qrank+1)·maxAtomDistance, at
	// least R). It must be large enough that every quantified witness of
	// the residual local formulas lies within distance ρ of the free
	// variables; Compile cannot verify this for arbitrary quantification —
	// see DESIGN.md §3.
	LocalRadius int
}

// Compile translates an FO⁺ query φ(x̄) into the decomposed LocalQuery form
// consumed by the engine — the role the Rank-Preserving Normal Form Theorem
// (Theorem 5.4) plays in the paper. vars fixes the tuple positions: vars[p]
// is the variable of position p.
//
// The supported fragment: Boolean combinations of (i) atoms over the free
// variables (E, colors, =, dist ≤ d), (ii) subformulas (possibly
// quantified) whose free variables all fall into one connected component of
// the distance type under consideration, and (iii) sentences (which become
// clause guards). A formula whose quantified subformulas straddle
// components, or whose distance atoms cross components with a constant
// above the threshold R, is rejected.
func Compile(phi fo.Formula, vars []fo.Var, opt CompileOptions) (*LocalQuery, error) {
	k := len(vars)
	if k < 1 {
		return nil, fmt.Errorf("core: need at least one position variable")
	}
	free := fo.FreeVars(phi)
	posOf := map[fo.Var]int{}
	for p, v := range vars {
		if _, dup := posOf[v]; dup {
			return nil, fmt.Errorf("core: duplicate position variable %s", v)
		}
		posOf[v] = p
	}
	for _, v := range free {
		if _, ok := posOf[v]; !ok {
			return nil, fmt.Errorf("core: free variable %s is not a position variable", v)
		}
	}
	maxAtom := fo.MaxDistConstant(phi)
	if maxAtom < 1 {
		maxAtom = 1
	}
	r := opt.R
	if r == 0 {
		r = maxAtom
		// Quantified subformulas that tie free variables together (e.g.
		// ∃z (E(x,z) ∧ E(z,y)) implies dist(x,y) ≤ 2) need a threshold at
		// least as large as the implied bound so the type can decide them.
		if b := maxQuantifiedUnitBound(phi); b > r {
			r = b
		}
	}
	rho := opt.LocalRadius
	if rho == 0 {
		// Witness-reach analysis: the smallest ρ such that evaluating the
		// residual local formulas in G[N_ρ(ā_I)] agrees with global
		// semantics — every quantified witness is anchored within ρ of
		// the free variables.
		wr, ok := WitnessReach(phi, vars)
		if !ok {
			return nil, fmt.Errorf(
				"core: cannot bound the witness distance of a quantifier in %s; "+
					"the query is not local — set CompileOptions.LocalRadius explicitly "+
					"if you know a bound", phi)
		}
		rho = wr
		if rho < r {
			rho = r
		}
	}

	// Rename positions to the canonical x0..x(k-1) names.
	body := phi
	for p, v := range vars {
		if v != PosVar(p) {
			body = fo.Rename(body, v, PosVar(p))
		}
	}

	q := &LocalQuery{K: k, R: r, LocalRadius: rho, Guarded: opt.LocalRadius == 0}
	var guards []*Guard
	anyGuard := false
	for _, typ := range fo.AllDistTypes(k) {
		cc := &compileCtx{k: k, r: r, typ: typ, posOf: posOfCanonical(k)}
		cc.computeComponents()
		disjuncts, err := cc.split(body)
		if err != nil {
			return nil, err
		}
		for _, d := range disjuncts {
			cl := Clause{Type: typ, Locals: make([]ComponentFormula, len(cc.comps))}
			for i, comp := range cc.comps {
				f := d.perComp[i]
				if f == nil {
					f = fo.Truth{Value: true}
				}
				cl.Locals[i] = ComponentFormula{Positions: comp, Psi: f}
			}
			q.Clauses = append(q.Clauses, cl)
			if d.guard != nil {
				guards = append(guards, &Guard{Sentence: d.guard})
				anyGuard = true
			} else {
				guards = append(guards, nil)
			}
		}
	}
	if anyGuard {
		q.Guards = guards
	}
	if err := q.Validate(); err != nil {
		return nil, fmt.Errorf("core: compiled query invalid: %v", err)
	}
	return q, nil
}

func posOfCanonical(k int) map[fo.Var]int {
	m := make(map[fo.Var]int, k)
	for p := 0; p < k; p++ {
		m[PosVar(p)] = p
	}
	return m
}

type compileCtx struct {
	k     int
	r     int
	typ   *fo.DistType
	posOf map[fo.Var]int

	comps  [][]int
	compOf []int
	hop    []int // k×k hop distances in the type graph; -1 = disconnected
}

func (cc *compileCtx) computeComponents() {
	cc.comps = cc.typ.Components()
	cc.compOf = make([]int, cc.k)
	for ci, comp := range cc.comps {
		for _, p := range comp {
			cc.compOf[p] = ci
		}
	}
	cc.hop = make([]int, cc.k*cc.k)
	for i := range cc.hop {
		cc.hop[i] = -1
	}
	for s := 0; s < cc.k; s++ {
		cc.hop[s*cc.k+s] = 0
		queue := []int{s}
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			for v := 0; v < cc.k; v++ {
				if u != v && cc.typ.Close(u, v) && cc.hop[s*cc.k+v] < 0 {
					cc.hop[s*cc.k+v] = cc.hop[s*cc.k+u] + 1
					queue = append(queue, v)
				}
			}
		}
	}
}

// disjunct is one conjunctive branch: a formula per component plus an
// optional sentence guard.
type disjunct struct {
	perComp map[int]fo.Formula
	guard   fo.Formula
}

func (d disjunct) clone() disjunct {
	nd := disjunct{perComp: make(map[int]fo.Formula, len(d.perComp)), guard: d.guard}
	for k, v := range d.perComp {
		nd.perComp[k] = v
	}
	return nd
}

// split decomposes f into a disjunction of per-component conjunctions,
// under the knowledge encoded by the distance type.
func (cc *compileCtx) split(f fo.Formula) ([]disjunct, error) {
	switch f := f.(type) {
	case fo.Truth:
		if f.Value {
			return []disjunct{{perComp: map[int]fo.Formula{}}}, nil
		}
		return nil, nil
	case fo.And:
		acc := []disjunct{{perComp: map[int]fo.Formula{}}}
		for _, g := range f.Fs {
			ds, err := cc.split(g)
			if err != nil {
				return nil, err
			}
			var next []disjunct
			for _, a := range acc {
				for _, b := range ds {
					next = append(next, mergeDisjuncts(a, b))
				}
			}
			acc = next
			if len(acc) == 0 {
				return nil, nil
			}
		}
		return acc, nil
	case fo.Or:
		var acc []disjunct
		for _, g := range f.Fs {
			ds, err := cc.split(g)
			if err != nil {
				return nil, err
			}
			acc = append(acc, ds...)
		}
		return acc, nil
	case fo.Not:
		return cc.splitNot(f.F)
	default:
		return cc.splitLeaf(f, false)
	}
}

func (cc *compileCtx) splitNot(f fo.Formula) ([]disjunct, error) {
	switch f := f.(type) {
	case fo.Truth:
		return cc.split(fo.Truth{Value: !f.Value})
	case fo.Not:
		return cc.split(f.F)
	case fo.And: // De Morgan
		var negs []fo.Formula
		for _, g := range f.Fs {
			negs = append(negs, fo.Not{F: g})
		}
		return cc.split(fo.Or{Fs: negs})
	case fo.Or:
		var negs []fo.Formula
		for _, g := range f.Fs {
			negs = append(negs, fo.Not{F: g})
		}
		return cc.split(fo.And{Fs: negs})
	default:
		return cc.splitLeaf(f, true)
	}
}

// splitLeaf handles atoms and quantified subformulas (possibly negated).
func (cc *compileCtx) splitLeaf(f fo.Formula, negated bool) ([]disjunct, error) {
	// Type-decided atoms first.
	if dec, ok, err := cc.decide(f); err != nil {
		return nil, err
	} else if ok {
		if dec != negated {
			return []disjunct{{perComp: map[int]fo.Formula{}}}, nil
		}
		return nil, nil
	}
	unit := f
	if negated {
		unit = fo.Not{F: f}
	}
	free := fo.FreeVars(unit)
	if len(free) == 0 {
		return []disjunct{{perComp: map[int]fo.Formula{}, guard: unit}}, nil
	}
	comp := -1
	spans := false
	for _, v := range free {
		p, ok := cc.posOf[v]
		if !ok {
			return nil, fmt.Errorf("core: unbound non-position variable %s in %s", v, unit)
		}
		ci := cc.compOf[p]
		if comp == -1 {
			comp = ci
		} else if comp != ci {
			spans = true
		}
	}
	if spans {
		// A component-spanning unit is admissible only if the locality
		// analysis proves it unsatisfiable under the type: some pair of
		// its free variables in different components is forced within
		// distance ≤ R, contradicting the type's "far" requirement.
		bounds := impliedBounds(f)
		for k, d := range bounds {
			pi, oki := cc.posOf[k[0]]
			pj, okj := cc.posOf[k[1]]
			if oki && okj && cc.compOf[pi] != cc.compOf[pj] && d <= cc.r {
				if negated {
					return []disjunct{{perComp: map[int]fo.Formula{}}}, nil
				}
				return nil, nil
			}
		}
		return nil, fmt.Errorf(
			"core: subformula %s spans distance-type components; not compilable at R=%d", unit, cc.r)
	}
	return []disjunct{{perComp: map[int]fo.Formula{comp: unit}}}, nil
}

// decide resolves atoms over free position variables whose truth is forced
// by the distance type: (true-value, decided, error).
func (cc *compileCtx) decide(f fo.Formula) (bool, bool, error) {
	switch f := f.(type) {
	case fo.Eq:
		pi, oki := cc.posOf[f.X]
		pj, okj := cc.posOf[f.Y]
		if !oki || !okj {
			return false, false, nil
		}
		if pi == pj {
			return true, true, nil
		}
		if cc.compOf[pi] != cc.compOf[pj] {
			return false, true, nil // equal elements are at distance 0 ≤ R
		}
		return false, false, nil
	case fo.Edge:
		pi, oki := cc.posOf[f.X]
		pj, okj := cc.posOf[f.Y]
		if !oki || !okj {
			return false, false, nil
		}
		if pi == pj {
			return false, true, nil // no self-loops
		}
		if cc.compOf[pi] != cc.compOf[pj] {
			return false, true, nil // adjacent elements are at distance 1 ≤ R
		}
		return false, false, nil
	case fo.DistLeq:
		pi, oki := cc.posOf[f.X]
		pj, okj := cc.posOf[f.Y]
		if !oki || !okj {
			return false, false, nil
		}
		if pi == pj {
			return true, true, nil
		}
		if cc.compOf[pi] != cc.compOf[pj] {
			if f.D <= cc.r {
				return false, true, nil // the type forces dist > R ≥ d
			}
			return false, false, fmt.Errorf(
				"core: atom %s crosses components with constant %d > R=%d; recompile with a larger R",
				f, f.D, cc.r)
		}
		if h := cc.hop[pi*cc.k+pj]; h >= 0 && f.D >= cc.r*h {
			return true, true, nil // the type forces dist ≤ R·hops ≤ d
		}
		return false, false, nil
	}
	return false, false, nil
}

func mergeDisjuncts(a, b disjunct) disjunct {
	out := a.clone()
	for ci, f := range b.perComp {
		if g, ok := out.perComp[ci]; ok {
			out.perComp[ci] = fo.AndOf(g, f)
		} else {
			out.perComp[ci] = f
		}
	}
	if b.guard != nil {
		if out.guard != nil {
			out.guard = fo.AndOf(out.guard, b.guard)
		} else {
			out.guard = b.guard
		}
	}
	return out
}
