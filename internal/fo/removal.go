package fo

import (
	"fmt"

	"repro/internal/graph"
)

// Removal implements the Removal Lemma (Lemma 5.5): given a colored graph
// G, a vertex s, and a bound maxD on distance constants, it produces a
// recoloring H of G \ {s} with fresh color classes
//
//	D_i = { w ≠ s : dist_G(w, s) ≤ i }   for i = 1..maxD
//
// such that any FO⁺ formula φ can be rewritten (Rewrite) into a formula φ′
// over the extended schema with
//
//	G ⊨ φ(b̄)  ⟺  H ⊨ φ′(b̄_{∖I})
//
// for all tuples b̄ whose s-positions are exactly the designated variables.
// This is the mechanism Step 4 of Proposition 4.2 and Steps 8–11 of the
// main algorithm use to recurse along the splitter game.
type Removal struct {
	// H is G \ {s} with the D_i color classes appended.
	H *graph.Graph
	// Sub maps H's vertices to G's (H keeps G's relative vertex order).
	Sub *graph.Sub

	g    *graph.Graph
	s    graph.V
	maxD int
	base int // first D_i color index; D_i has color base+i-1
}

// NewRemoval builds the recolored graph H for removing s, supporting
// rewritten distance constants up to maxD.
func NewRemoval(g *graph.Graph, s graph.V, maxD int) *Removal {
	if maxD < 1 {
		maxD = 1
	}
	sub := graph.RemoveVertex(g, s)
	// Distance classes around s, computed in G.
	bfs := graph.NewBFS(g)
	classes := make([][]graph.V, maxD)
	for _, w := range bfs.Ball(s, maxD) {
		d := bfs.Dist(int(w))
		if d == 0 {
			continue
		}
		lw := sub.Local(int(w))
		for i := d; i <= maxD; i++ {
			classes[i-1] = append(classes[i-1], lw)
		}
	}
	h := graph.AddColors(sub.G, classes...)
	return &Removal{
		H: h, Sub: sub, g: g, s: s, maxD: maxD, base: sub.G.NumColors(),
	}
}

// DistColor returns the color index of the class D_i (1 ≤ i ≤ maxD).
func (r *Removal) DistColor(i int) int {
	if i < 1 || i > r.maxD {
		panic(fmt.Sprintf("fo: D_%d outside [1,%d]", i, r.maxD))
	}
	return r.base + i - 1
}

// Rewrite produces φ′ for the designated variables sVars (the variables
// whose positions carry s in the lemma's statement). All distance
// constants of φ must be ≤ maxD.
func (r *Removal) Rewrite(phi Formula, sVars []Var) (Formula, error) {
	s := map[Var]bool{}
	for _, v := range sVars {
		s[v] = true
	}
	return r.rewrite(phi, s)
}

func (r *Removal) rewrite(f Formula, sv map[Var]bool) (Formula, error) {
	switch f := f.(type) {
	case Truth:
		return f, nil
	case Edge:
		switch {
		case sv[f.X] && sv[f.Y]:
			return Truth{false}, nil // no self loops
		case sv[f.X]:
			return r.distAtom(f.Y, 1)
		case sv[f.Y]:
			return r.distAtom(f.X, 1)
		}
		return f, nil
	case Eq:
		switch {
		case sv[f.X] && sv[f.Y]:
			return Truth{true}, nil
		case sv[f.X] || sv[f.Y]:
			return Truth{false}, nil // the other side ranges over H ∌ s
		}
		return f, nil
	case HasColor:
		if sv[f.X] {
			return Truth{r.g.HasColor(r.s, f.C)}, nil
		}
		return f, nil
	case DistLeq:
		switch {
		case sv[f.X] && sv[f.Y]:
			return Truth{f.D >= 0}, nil
		case sv[f.X]:
			return r.distAtom(f.Y, f.D)
		case sv[f.Y]:
			return r.distAtom(f.X, f.D)
		}
		// dist_G(x,y) ≤ d ⟺ dist_H(x,y) ≤ d ∨ the path goes through s:
		// ∃ i+j ≤ d with dist(x,s) ≤ i and dist(s,y) ≤ j.
		if f.D > r.maxD {
			return nil, fmt.Errorf("fo: distance constant %d exceeds removal bound %d", f.D, r.maxD)
		}
		out := []Formula{f}
		for i := 1; i+1 <= f.D; i++ {
			j := f.D - i
			out = append(out, AndOf(
				HasColor{r.DistColor(i), f.X},
				HasColor{r.DistColor(j), f.Y},
			))
		}
		return OrOf(out...), nil
	case Rel:
		return nil, fmt.Errorf("fo: removal rewriting applies to colored-graph formulas only")
	case Not:
		g, err := r.rewrite(f.F, sv)
		if err != nil {
			return nil, err
		}
		return NotOf(g), nil
	case And:
		out := make([]Formula, 0, len(f.Fs))
		for _, g := range f.Fs {
			h, err := r.rewrite(g, sv)
			if err != nil {
				return nil, err
			}
			out = append(out, h)
		}
		return AndOf(out...), nil
	case Or:
		out := make([]Formula, 0, len(f.Fs))
		for _, g := range f.Fs {
			h, err := r.rewrite(g, sv)
			if err != nil {
				return nil, err
			}
			out = append(out, h)
		}
		return OrOf(out...), nil
	case Exists:
		// ∃z over G splits: the witness is s, or it lives in H.
		wasS := sv[f.V]
		sv[f.V] = false
		inH, err := r.rewrite(f.F, sv)
		if err != nil {
			return nil, err
		}
		sv[f.V] = true
		isS, err := r.rewrite(f.F, sv)
		sv[f.V] = wasS
		if err != nil {
			return nil, err
		}
		return OrOf(Exists{f.V, inH}, bindFresh(f.V, isS)), nil
	case Forall:
		wasS := sv[f.V]
		sv[f.V] = false
		inH, err := r.rewrite(f.F, sv)
		if err != nil {
			return nil, err
		}
		sv[f.V] = true
		isS, err := r.rewrite(f.F, sv)
		sv[f.V] = wasS
		if err != nil {
			return nil, err
		}
		return AndOf(Forall{f.V, inH}, bindFresh(f.V, isS)), nil
	}
	return nil, fmt.Errorf("fo: cannot rewrite %T", f)
}

// distAtom rewrites dist(x, s) ≤ d into the color atom D_d(x).
func (r *Removal) distAtom(x Var, d int) (Formula, error) {
	if d < 1 {
		return Truth{false}, nil // dist(x,s) ≤ 0 with x ≠ s
	}
	if d > r.maxD {
		return nil, fmt.Errorf("fo: distance constant %d exceeds removal bound %d", d, r.maxD)
	}
	return HasColor{r.DistColor(d), x}, nil
}

// bindFresh closes any residual free occurrence of v in the "witness = s"
// branch. After substitution the branch should not mention v; if atoms
// slipped through (they cannot, by construction), quantify them away
// harmlessly.
func bindFresh(v Var, f Formula) Formula {
	for _, fv := range FreeVars(f) {
		if fv == v {
			return Exists{v, f}
		}
	}
	return f
}
