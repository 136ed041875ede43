package core

import (
	"sort"

	"repro/internal/fo"
)

// distBounds maps ordered variable pairs to an upper bound on their
// distance in any satisfying assignment. It is the syntactic locality
// analysis the compiler uses to decide quantified subformulas that span
// distance-type components: if a unit implies dist(x_i, x_j) ≤ b and the
// type forces dist > R ≥ b, the unit is unsatisfiable under that type.
type distBounds map[[2]fo.Var]int

func pairKey(x, y fo.Var) [2]fo.Var {
	if x > y {
		x, y = y, x
	}
	return [2]fo.Var{x, y}
}

func (b distBounds) upd(x, y fo.Var, d int) {
	if x == y {
		return
	}
	k := pairKey(x, y)
	if old, ok := b[k]; !ok || d < old {
		b[k] = d
	}
}

// impliedBounds computes distance bounds between the free variables of f
// that hold in every model. The analysis is conservative: absence of a
// bound never causes wrong answers, only compile failures.
func impliedBounds(f fo.Formula) distBounds {
	switch f := f.(type) {
	case fo.Edge:
		b := distBounds{}
		b.upd(f.X, f.Y, 1)
		return b
	case fo.Eq:
		b := distBounds{}
		b.upd(f.X, f.Y, 0)
		return b
	case fo.DistLeq:
		b := distBounds{}
		b.upd(f.X, f.Y, f.D)
		return b
	case fo.And:
		b := distBounds{}
		for _, g := range f.Fs {
			for k, d := range impliedBounds(g) {
				b.upd(k[0], k[1], d)
			}
		}
		return closure(b)
	case fo.Or:
		if len(f.Fs) == 0 {
			return distBounds{}
		}
		// A bound survives a disjunction only if every branch implies it.
		acc := impliedBounds(f.Fs[0])
		for _, g := range f.Fs[1:] {
			bg := impliedBounds(g)
			next := distBounds{}
			for k, d := range acc {
				if dg, ok := bg[k]; ok {
					if dg > d {
						d = dg
					}
					next[k] = d
				}
			}
			acc = next
		}
		return acc
	case fo.Exists:
		return eliminate(impliedBounds(f.F), f.V)
	}
	// Not, Forall, Truth, HasColor: no positive distance information.
	return distBounds{}
}

// closure completes bounds under the triangle inequality
// (Floyd–Warshall over the variables; mid plays the role of k).
func closure(b distBounds) distBounds {
	vars := map[fo.Var]bool{}
	for k := range b {
		vars[k[0]] = true
		vars[k[1]] = true
	}
	vs := make([]fo.Var, 0, len(vars))
	for v := range vars {
		vs = append(vs, v)
	}
	sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
	for _, mid := range vs {
		for _, x := range vs {
			for _, y := range vs {
				if x == y || x == mid || y == mid {
					continue
				}
				dx, okx := b[pairKey(x, mid)]
				dy, oky := b[pairKey(mid, y)]
				if okx && oky {
					b.upd(x, y, dx+dy)
				}
			}
		}
	}
	return b
}

// eliminate removes variable v, keeping bounds it mediated.
func eliminate(b distBounds, v fo.Var) distBounds {
	b = closure(b)
	out := distBounds{}
	for k, d := range b {
		if k[0] != v && k[1] != v {
			out[k] = d
		}
	}
	return out
}

// unbounded is the sentinel for "no finite witness distance derivable".
const unbounded = 1 << 29

// reach computes an upper bound on the locality radius ρ needed to
// evaluate f correctly inside G[N_ρ(ā)]: every quantified witness and
// every path certifying a distance atom must lie within ρ of the free
// anchors. ecc maps each currently-free variable to an upper bound on its
// distance from the anchors (position variables start at 0). It returns
// `unbounded` when a quantifier has no derivable anchor — the caller then
// falls back to a coarse default.
func reach(f fo.Formula, ecc map[fo.Var]int) int {
	switch f := f.(type) {
	case fo.Truth:
		return 0
	case fo.HasColor:
		return eccOf(ecc, f.X)
	case fo.Eq:
		return maxInt(eccOf(ecc, f.X), eccOf(ecc, f.Y))
	case fo.Edge:
		return maxInt(eccOf(ecc, f.X), eccOf(ecc, f.Y))
	case fo.DistLeq:
		// The certifying path of length ≤ D starts at the closer endpoint.
		base := eccOf(ecc, f.X)
		if e := eccOf(ecc, f.Y); e < base {
			base = e
		}
		return minCap(base + f.D)
	case fo.Not:
		return reach(f.F, ecc)
	case fo.And:
		r := 0
		for _, g := range f.Fs {
			r = maxInt(r, reach(g, ecc))
		}
		return r
	case fo.Or:
		r := 0
		for _, g := range f.Fs {
			r = maxInt(r, reach(g, ecc))
		}
		return r
	case fo.Exists:
		if len(fo.FreeVars(f)) == 0 {
			return 0 // a sentence: extracted as a clause guard, evaluated globally
		}
		return reachQuantified(f.V, f.F, f.F, ecc)
	case fo.Forall:
		if len(fo.FreeVars(f)) == 0 {
			return 0
		}
		// ∀z φ ≡ ¬∃z ¬φ: witnesses are the z falsifying φ; anchor them
		// through the implied bounds of ¬φ in negation normal form.
		return reachQuantified(f.V, f.F, nnfNeg(f.F), ecc)
	}
	return unbounded
}

func reachQuantified(v fo.Var, body, witnessBody fo.Formula, ecc map[fo.Var]int) int {
	bounds := impliedBounds(witnessBody)
	ev := unbounded
	for other, e := range ecc {
		if d, ok := bounds[pairKey(v, other)]; ok && e+d < ev {
			ev = e + d
		}
	}
	if ev >= unbounded {
		// Unanchored quantifier over a variable that does not occur freely
		// below is harmless; otherwise the reach is unknown.
		if !occursFree(body, v) {
			ev = 0
		} else {
			return unbounded
		}
	}
	old, had := ecc[v]
	ecc[v] = ev
	r := reach(body, ecc)
	if had {
		ecc[v] = old
	} else {
		delete(ecc, v)
	}
	return maxInt(r, ev)
}

// nnfNeg returns a negation-normal-ish form of ¬f, good enough for the
// impliedBounds analysis (which ignores negative literals anyway).
func nnfNeg(f fo.Formula) fo.Formula {
	switch f := f.(type) {
	case fo.Truth:
		return fo.Truth{Value: !f.Value}
	case fo.Not:
		return f.F
	case fo.And:
		out := make([]fo.Formula, len(f.Fs))
		for i, g := range f.Fs {
			out[i] = nnfNeg(g)
		}
		return fo.Or{Fs: out}
	case fo.Or:
		out := make([]fo.Formula, len(f.Fs))
		for i, g := range f.Fs {
			out[i] = nnfNeg(g)
		}
		return fo.And{Fs: out}
	case fo.Exists:
		return fo.Forall{V: f.V, F: nnfNeg(f.F)}
	case fo.Forall:
		return fo.Exists{V: f.V, F: nnfNeg(f.F)}
	}
	return fo.Not{F: f}
}

func occursFree(f fo.Formula, v fo.Var) bool {
	for _, fv := range fo.FreeVars(f) {
		if fv == v {
			return true
		}
	}
	return false
}

func eccOf(ecc map[fo.Var]int, v fo.Var) int {
	if e, ok := ecc[v]; ok {
		return e
	}
	return 0
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func minCap(x int) int {
	if x > unbounded {
		return unbounded
	}
	return x
}

// WitnessReach computes the locality radius needed for φ with the given
// anchor variables, or ok=false when no finite bound is derivable.
func WitnessReach(phi fo.Formula, anchors []fo.Var) (int, bool) {
	ecc := map[fo.Var]int{}
	for _, v := range anchors {
		ecc[v] = 0
	}
	r := reach(phi, ecc)
	if r >= unbounded {
		return 0, false
	}
	return r, true
}

// maxQuantifiedUnitBound returns the largest finite pairwise bound implied
// by any quantified subformula of f, used to pick a default distance-type
// threshold R big enough to decide cross-component units.
func maxQuantifiedUnitBound(f fo.Formula) int {
	best := 0
	var walk func(g fo.Formula)
	walk = func(g fo.Formula) {
		switch g := g.(type) {
		case fo.Not:
			walk(g.F)
		case fo.And:
			for _, h := range g.Fs {
				walk(h)
			}
		case fo.Or:
			for _, h := range g.Fs {
				walk(h)
			}
		case fo.Exists:
			for _, d := range impliedBounds(g) {
				if d > best {
					best = d
				}
			}
			walk(g.F)
		case fo.Forall:
			walk(g.F)
		}
	}
	walk(f)
	return best
}
