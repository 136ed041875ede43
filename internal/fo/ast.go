// Package fo implements first-order logic with distance atoms (the logic
// FO⁺ of Section 5 of the paper) over colored graphs: atoms E(x,y), C_i(x),
// x=y and dist(x,y)≤d, the Boolean connectives, and quantifiers. It
// provides a parser for a small textual query language, structural measures
// (size, quantifier rank, q-rank), naive evaluation (the correctness oracle
// used by tests and baselines), and r-distance types of tuples.
package fo

import (
	"fmt"
	"strings"
)

// Var is a first-order variable.
type Var string

// Formula is a FO⁺ formula over the schema σ_c of colored graphs.
type Formula interface {
	fmt.Stringer
	formula()
}

// Truth is the constant ⊤ (Value=true) or ⊥ (Value=false).
type Truth struct{ Value bool }

// Edge is the atom E(X, Y); E is symmetric.
type Edge struct{ X, Y Var }

// HasColor is the atom C_c(X).
type HasColor struct {
	C int
	X Var
}

// Eq is the atom X = Y.
type Eq struct{ X, Y Var }

// DistLeq is the FO⁺ atom dist(X, Y) ≤ D, interpreted in the Gaifman graph
// (which for colored graphs is the graph itself). D must be ≥ 0.
type DistLeq struct {
	X, Y Var
	D    int
}

// Not is negation.
type Not struct{ F Formula }

// And is conjunction of zero or more formulas (empty = ⊤).
type And struct{ Fs []Formula }

// Or is disjunction of zero or more formulas (empty = ⊥).
type Or struct{ Fs []Formula }

// Exists is existential quantification ∃V F.
type Exists struct {
	V Var
	F Formula
}

// Forall is universal quantification ∀V F.
type Forall struct {
	V Var
	F Formula
}

func (Truth) formula()    {}
func (Edge) formula()     {}
func (HasColor) formula() {}
func (Eq) formula()       {}
func (DistLeq) formula()  {}
func (Not) formula()      {}
func (And) formula()      {}
func (Or) formula()       {}
func (Exists) formula()   {}
func (Forall) formula()   {}

func (f Truth) String() string {
	if f.Value {
		return "true"
	}
	return "false"
}
func (f Edge) String() string     { return fmt.Sprintf("E(%s,%s)", f.X, f.Y) }
func (f HasColor) String() string { return fmt.Sprintf("C%d(%s)", f.C, f.X) }
func (f Eq) String() string       { return fmt.Sprintf("%s = %s", f.X, f.Y) }
func (f DistLeq) String() string  { return fmt.Sprintf("dist(%s,%s) <= %d", f.X, f.Y, f.D) }
func (f Not) String() string      { return "~(" + f.F.String() + ")" }

func (f And) String() string { return joinFormulas(f.Fs, " & ", "true") }
func (f Or) String() string  { return joinFormulas(f.Fs, " | ", "false") }

func (f Exists) String() string { return fmt.Sprintf("exists %s (%s)", f.V, f.F) }
func (f Forall) String() string { return fmt.Sprintf("forall %s (%s)", f.V, f.F) }

func joinFormulas(fs []Formula, sep, empty string) string {
	if len(fs) == 0 {
		return empty
	}
	parts := make([]string, len(fs))
	for i, f := range fs {
		parts[i] = "(" + f.String() + ")"
	}
	return strings.Join(parts, sep)
}

// Convenience constructors.

// AndOf returns the conjunction of fs, flattening nested Ands and dropping
// ⊤ conjuncts; it returns ⊥ if any conjunct is ⊥.
func AndOf(fs ...Formula) Formula {
	var out []Formula
	for _, f := range fs {
		switch f := f.(type) {
		case Truth:
			if !f.Value {
				return Truth{false}
			}
		case And:
			out = append(out, f.Fs...)
		default:
			out = append(out, f)
		}
	}
	switch len(out) {
	case 0:
		return Truth{true}
	case 1:
		return out[0]
	}
	return And{out}
}

// OrOf returns the disjunction of fs, flattening nested Ors and dropping ⊥
// disjuncts; it returns ⊤ if any disjunct is ⊤.
func OrOf(fs ...Formula) Formula {
	var out []Formula
	for _, f := range fs {
		switch f := f.(type) {
		case Truth:
			if f.Value {
				return Truth{true}
			}
		case Or:
			out = append(out, f.Fs...)
		default:
			out = append(out, f)
		}
	}
	switch len(out) {
	case 0:
		return Truth{false}
	case 1:
		return out[0]
	}
	return Or{out}
}

// NotOf returns the negation of f, collapsing double negation.
func NotOf(f Formula) Formula {
	switch f := f.(type) {
	case Not:
		return f.F
	case Truth:
		return Truth{!f.Value}
	}
	return Not{f}
}

// DistQuery returns the pure-FO definition of dist(x,y) ≤ r from
// Definition 4.1: dist≤0 is x=y, dist≤(r+1)(x,y) = ∃z (E(x,z) ∧ dist≤r(z,y)) ∨ dist≤r(x,y).
// It is used to cross-check the FO⁺ distance atom against plain FO.
func DistQuery(x, y Var, r int) Formula {
	if r == 0 {
		return Eq{x, y}
	}
	z := Var(fmt.Sprintf("_d%d", r))
	return OrOf(
		Exists{z, AndOf(Edge{x, z}, DistQuery(z, y, r-1))},
		DistQuery(x, y, r-1),
	)
}
