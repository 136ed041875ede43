package core

import (
	"fmt"
	"strings"
)

// String renders the decomposed normal form: one line per clause with its
// distance type and component formulas — the compiled "plan" of a query.
func (q *LocalQuery) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "LocalQuery(k=%d, R=%d, ρ=%d", q.K, q.R, q.LocalRadius)
	if q.Guarded {
		sb.WriteString(", guarded")
	}
	fmt.Fprintf(&sb, ", %d clauses)\n", len(q.Clauses))
	for ci, cl := range q.Clauses {
		fmt.Fprintf(&sb, "  clause %d: %s\n", ci, cl.Type)
		for _, lf := range cl.Locals {
			fmt.Fprintf(&sb, "    I=%v: %s\n", lf.Positions, lf.Psi)
		}
		if q.Guards != nil && q.Guards[ci] != nil {
			neg := ""
			if q.Guards[ci].Negated {
				neg = "¬"
			}
			fmt.Fprintf(&sb, "    guard: %s[%s]\n", neg, q.Guards[ci].Sentence)
		}
	}
	return strings.TrimRight(sb.String(), "\n")
}

// Explain describes the preprocessed index: the locality's structures
// (cover and distance index, or balls), the surviving clauses, their
// starter-list sizes and skip-pointer counts. It is the EXPLAIN output for
// a Theorem 2.3 index.
//
// The run-time half of the plan is in Stats: Candidates counts every value
// the clause search places at a position, DeadEnds every placed value whose
// deeper positions found nothing. An enumeration steps its clause cursors,
// so it places about one value an answer whatever the arity (1.00 on far2
// and far3); a NextGeq or a Seek places k. A ratio that grows with n is the
// constant of "constant delay" failing to be one. Both counters are exact
// after a NextGeq, an Iterator's Seek or exhaustion and an Enumerate; a live
// Iterator folds its counts in every 256 answers.
func (e *Engine) Explain() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "index over %s\n", e.g)
	e.loc.explain(&sb)
	// Per table the k of Lemma 5.8's n^(1+kε): the one among the paper's
	// hidden constants that is an exponent; and its largest family, which
	// Claim 5.10 bounds by δ^k.
	tables := ""
	for _, t := range e.tables {
		tables += fmt.Sprintf("; k=%d: %d, largest %d", t.K(), t.Size(), t.Largest())
	}
	if tables != "" {
		tables = " (" + tables[2:] + ")"
	}
	fmt.Fprintf(&sb, "  skip pointers: %d components, %d tables%s, %d pointers\n",
		len(e.stats.StarterSizes), e.stats.SkipTables, tables, e.stats.SkipPointers)
	fmt.Fprintf(&sb, "  %d live clauses (after guard evaluation):\n", len(e.clauses))
	for ci, rt := range e.clauses {
		fmt.Fprintf(&sb, "    clause %d: %s\n", ci, rt.clause.Type)
		for _, c := range rt.comps {
			skipSize, k := 0, 0
			if c.skip != nil {
				skipSize, k = c.skip.Size(), c.skip.K()
			}
			partners := ""
			if c.paired() {
				partners = fmt.Sprintf(" partner cells=%d,", c.partners.Cells())
			}
			fmt.Fprintf(&sb, "      I=%v: |starter|=%d,%s skip pointers=%d k=%d, ψ=%s\n",
				c.positions, len(c.starter), partners, skipSize, k, c.psi)
		}
	}
	return strings.TrimRight(sb.String(), "\n")
}
