package core

import (
	"context"
	"time"

	"repro/internal/graph"
)

// Iterator is the pull-style face of Corollary 2.5: a cursor over the
// solution set in lexicographic order with constant-delay Next calls.
//
// Internally it keeps one cursor per clause (τ, i) and advances them as a
// k-way merge: each Next pops the minimal per-clause candidate and only
// re-advances the clauses that produced it, so a query compiled into many
// disjuncts does not pay for all of them on every step (NextGeq, by
// contrast, is a one-shot primitive and probes every clause).
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
	e     *Engine
	n     int
	nexts [][]graph.V // per clause: candidate ≥ cursor (aliases bufs), nil = drained
	bufs  [][]graph.V // per-clause candidate buffers
	cur   []graph.V   // the next solution to hand out
	prev  []graph.V   // the previously handed-out solution (swap partner of cur)
	succ  []graph.V   // successor scratch
	has   bool
}

// IteratorFrom returns a cursor positioned at the smallest solution ≥ a.
// Every buffer is allocated here and reused by each later Seek and Next.
//
//fod:ctxok the loop allocates one buffer per clause of the compiled
// query, and Seek below is bounded by query size as well.
func (e *Engine) IteratorFrom(a []graph.V) *Iterator {
	k, nc := e.k, len(e.clauses)
	it := &Iterator{
		e: e, n: e.g.N(),
		nexts: make([][]graph.V, nc),
		bufs:  make([][]graph.V, nc),
		cur:   make([]graph.V, k),
		prev:  make([]graph.V, k),
		succ:  make([]graph.V, k),
	}
	for i := range it.bufs {
		it.bufs[i] = make([]graph.V, k)
	}
	it.Seek(a)
	return it
}

// Seek repositions the cursor at the smallest solution ≥ a (Theorem 2.3:
// constant time per clause).
//
//fod:ctxok the loop is over the compiled query's clauses — work bounded
// by query size, not by the graph or the solution set, so there is
// nothing to cancel mid-way.
func (it *Iterator) Seek(a []graph.V) {
	it.has = false
	if it.n == 0 {
		return // no tuples at all; every clause cursor stays drained
	}
	for i := range it.nexts {
		it.advance(i, a)
	}
	it.settle()
}

// advance moves clause i's cursor to its smallest match ≥ a.
//
//fod:hotpath
func (it *Iterator) advance(i int, a []graph.V) {
	if it.e.NextClauseInto(i, a, it.bufs[i]) {
		it.nexts[i] = it.bufs[i]
	} else {
		it.nexts[i] = nil
	}
}

// settle copies the overall minimum of the per-clause candidates into
// it.cur.
//
//fod:hotpath
func (it *Iterator) settle() {
	var best []graph.V
	for _, cand := range it.nexts {
		if cand != nil && (best == nil || lexLess(cand, best)) {
			best = cand
		}
	}
	if best == nil {
		it.has = false
		return
	}
	copy(it.cur, best)
	it.has = true
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
	// Hand out cur and flip the buffer pair, so settle below writes the
	// upcoming solution without clobbering the slice being returned.
	out := it.cur
	it.cur, it.prev = it.prev, it.cur
	if !incrementTupleInto(it.succ, out, it.n) {
		it.has = false
		return out, true
	}
	// Advance exactly the clauses whose candidate was consumed (several
	// clauses may share a solution tuple).
	for i, cand := range it.nexts {
		if cand != nil && !lexLess(out, cand) { // cand ≤ out, i.e. cand == out
			it.advance(i, it.succ)
		}
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
// On an instrumented engine every answer's production time (the cursor
// step — the paper's "delay", excluding the caller's yield body) is
// recorded into engine.delay_ns, which is what the fodbench delay profiler
// reports against the constant-delay claim. The clock reads live here,
// outside the //fod:hotpath Next.
//
//fod:ctxok the yield callback is the cancellation path: any caller that
// must honor a deadline returns false from yield (CountCtx does exactly
// that); a ctx parameter here would put a select on the constant-delay
// loop of every caller, cancellable or not.
func (e *Engine) Enumerate(yield func([]graph.V) bool) {
	it, delay := e.Iterator(), e.instr.delay
	for it.has {
		var sol []graph.V
		if delay != nil {
			start := time.Now()
			sol, _ = it.Next()
			delay.Observe(time.Since(start))
		} else {
			sol, _ = it.Next()
		}
		if !yield(sol) {
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
func lexLess(a, b []graph.V) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// incrementTupleInto writes the successor of a in the lexicographic order
// on [0,n)^k into dst (len(dst) == len(a)); ok=false at the maximum.
//
//fod:hotpath
func incrementTupleInto(dst, a []graph.V, n int) bool {
	copy(dst, a)
	for i := len(dst) - 1; i >= 0; i-- {
		if dst[i]+1 < n {
			dst[i]++
			return true
		}
		dst[i] = 0
	}
	return false
}
