package core

import (
	"context"

	"repro/internal/graph"
)

// Iterator is the pull-style face of Corollary 2.5: a cursor over the
// solution set in lexicographic order with constant-delay Next calls.
//
// Internally it keeps one clauseCursor per clause (τ, i) and advances them
// as a k-way merge: each Next hands out the minimal per-clause match and
// steps only the clauses that produced it — settle wrote down which, so Next
// compares no tuples — so a query compiled into many disjuncts does not pay
// for all of them on every answer, and a clause that is stepped continues
// from the tuple it holds instead of searching for the successor tuple from
// position 0 (NextGeq, by contrast, is a one-shot primitive: it seeks every
// clause).
//
// The cursors count what they place in fields of their own, which the
// iterator folds into the engine's Stats at every Seek, at exhaustion, when
// an Enumerate ends and at least every foldEvery answers in between.
//
// The iterator owns every buffer it hands out, keeping steady-state Next
// calls allocation-free (the AllocsPerRun guards pin Next at 0 allocs/op
// over either locality): the slice returned by Next is valid only until the
// following Next or Seek call — copy it to retain it, exactly as with
// Enumerate.
//
// One Iterator is for one goroutine; any number of them may run over the
// same engine concurrently with each other and with every other engine
// call.
type Iterator struct {
	e    *Engine
	curs []clauseCursor
	// buf is two tuples: the next solution to hand out at buf[at:at+k], the
	// one handed out last in the other half.
	buf []graph.V
	at  int
	has bool
	// unfolded counts the answers handed out since the cursors last folded.
	unfolded int
}

// foldEvery bounds how many answers a live iterator hands out between two
// folds of its cursors' counters into the engine's Stats.
const foldEvery = 256

// IteratorFrom returns a cursor positioned at the smallest solution ≥ a.
// Every buffer is allocated here — the tuples in one array, the frames in
// another — and reused by each later Seek and Next.
func (e *Engine) IteratorFrom(a []graph.V) *Iterator {
	k, nc := e.k, len(e.clauses)
	tuples, frames := make([]graph.V, (nc+2)*k), make([]frame, nc*k)
	it := &Iterator{e: e, curs: make([]clauseCursor, nc), buf: tuples[nc*k:]}
	for i, rt := range e.clauses {
		it.curs[i] = clauseCursor{rt: rt, t: tuples[i*k : (i+1)*k], frames: frames[i*k : (i+1)*k]}
	}
	it.Seek(a)
	return it
}

// Seek repositions the cursor at the smallest solution ≥ a (Theorem 2.3:
// constant time per clause). The loop is over the compiled query's clauses
// — work bounded by query size, not by the graph or the solution set, so
// there is nothing to cancel mid-way.
func (it *Iterator) Seek(a []graph.V) {
	for i := range it.curs {
		it.e.seek(&it.curs[i], a)
	}
	it.settle()
	it.fold()
}

// settle copies the overall minimum of the per-clause matches into the
// current half of it.buf and marks the cursors that hold it; with none left
// it folds.
//
//fod:hotpath
func (it *Iterator) settle() {
	var best []graph.V
	for i := range it.curs {
		c := &it.curs[i]
		d := -1 // c.t against best; below everything while there is none
		if c.ok && best != nil {
			d = lexCompare(c.t, best)
		}
		c.min = c.ok && d <= 0
		if c.min && d < 0 {
			// A new minimum: the cursors marked before hold larger matches.
			for j := range it.curs[:i] {
				it.curs[j].min = false
			}
			best = c.t
		}
	}
	it.has = best != nil
	if !it.has {
		it.fold()
		return
	}
	// A loop, not copy: the tuple is a few words, and copy calls memmove.
	out := it.buf[it.at : it.at+len(best)]
	for i, v := range best {
		out[i] = v
	}
}

// fold moves what the cursors counted into the engine's Stats.
//
//fod:hotpath
func (it *Iterator) fold() {
	for i := range it.curs {
		it.e.fold(&it.curs[i])
	}
	it.unfolded = 0
}

// HasNext reports whether another solution is available.
func (it *Iterator) HasNext() bool { return it.has }

// Next returns the current solution and advances the cursor. The returned
// slice is valid until the next call to Next or Seek; copy it to retain
// it. ok=false signals exhaustion.
//
//fod:hotpath
func (it *Iterator) Next() ([]graph.V, bool) {
	if !it.has {
		return nil, false
	}
	// Hand out the current half and flip, so settle below writes the
	// upcoming solution without clobbering the slice being returned.
	k := it.e.k
	out := it.buf[it.at : it.at+k : it.at+k]
	it.at = k - it.at
	// Step exactly the clauses whose match was consumed (several clauses
	// may share a solution tuple).
	for i := range it.curs {
		if c := &it.curs[i]; c.min {
			it.e.step(c)
		}
	}
	if it.unfolded++; it.unfolded == foldEvery {
		it.fold()
	}
	it.settle()
	return out, true
}

// Enumerate implements Corollary 2.5: it yields every solution exactly
// once, in increasing lexicographic order, until exhaustion or until yield
// returns false. The tuple passed to yield is reused; copy it to retain
// it. This is the one enumeration loop behind Enumerate, Count and
// CountCtx.
//
// The yield callback is the cancellation path: any caller that must honor
// a deadline returns false from yield (CountCtx does exactly that); a ctx
// parameter here would put a select on the constant-delay loop of every
// caller, cancellable or not.
func (e *Engine) Enumerate(yield func([]graph.V) bool) {
	it := e.Iterator()
	for it.has {
		if sol, _ := it.Next(); !yield(sol) {
			it.fold()
			return
		}
	}
}

// countCheckEvery is how many answers a cancellable count produces
// between ctx polls: frequent enough that a canceled request stops after
// a bounded number of constant-delay steps, rare enough that the poll
// cost vanishes against the enumeration itself.
const countCheckEvery = 4096

// CountCtx counts |q(G)| by full enumeration with cooperative
// cancellation, polling ctx every countCheckEvery answers. It returns
// ctx.Err() if the context was canceled before the solution set was
// exhausted.
func (e *Engine) CountCtx(ctx context.Context) (int, error) {
	n := 0
	canceled := false
	e.Enumerate(func([]graph.V) bool {
		n++
		if n%countCheckEvery == 0 {
			select {
			case <-ctx.Done():
				canceled = true
				return false
			default:
			}
		}
		return true
	})
	if canceled {
		return 0, ctx.Err()
	}
	return n, nil
}

// lexLess reports a < b in the lexicographic order on equal-length tuples.
//
//fod:hotpath
func lexLess(a, b []graph.V) bool { return lexCompare(a, b) < 0 }

// lexCompare returns −1, 0 or +1 as a is below, equal to or above b in the
// lexicographic order on equal-length tuples.
//
//fod:hotpath
func lexCompare(a, b []graph.V) int {
	for i := range a {
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	return 0
}
