package core

import (
	"fmt"
	"math"
	"slices"
	"sync/atomic"

	"repro/internal/fo"
	"repro/internal/graph"
	"repro/internal/par"
)

// Partner rows: Case II of §5.2 for a component of two positions p < p′,
// done where the paper does it — in the preprocessing (Steps 8–11 for
// |I| = 2). Row v of c.partners lists, ascending, the w ∈ N_R(v) with
// ψ(v, w): the type edge (p, p′) — close, or the two would not be one
// component — and the formula, settled once per cell. What is left for the
// answering phase is a successor lookup in a sorted row (the Storing Theorem
// 3.1 applied per anchor, as Durand–Schweikardt–Segoufin do per vertex):
// nextPartner for the clause search and NextLast, pairHolds for Test. The
// rows are one graph.Rows, so a write patches the rows it reaches and shares
// the other blocks (repartner), and a snapshot stores the CSR pair
// (CompParts.Partners).

// rowScratch is what reading N_R rows off a locality and evaluating ψ on
// their cells needs, for one goroutine: the search state is borrowed on first
// use (a locality that holds its balls never searches).
type rowScratch struct {
	g    *graph.Graph
	bfs  *graph.BFS
	ball []int32    // where coverLoc.near assembles a row
	vals [2]graph.V // the pair under evaluation
}

func (sc *rowScratch) search() *graph.BFS {
	if sc.bfs == nil {
		sc.bfs = graph.BorrowBFS(sc.g)
	}
	return sc.bfs
}

func (sc *rowScratch) release() {
	if sc.bfs != nil {
		sc.bfs.Release()
		sc.bfs = nil
	}
}

// appendPartners appends the partner row of v to dst: one pass over N_R(v)
// as the locality holds it, ψ with no memo. A constant ψ (far3's close pair
// has ψ ≡ ⊤) keeps the whole row or none of it. A certified quantifier-free
// ψ reads its two values and nothing around them, so the row borrows one
// evaluator and one environment and sets a variable a cell; any other ψ goes
// through evalLocal, cell by cell. Every cell counts as a local evaluation.
func (e *Engine) appendPartners(dst []int32, c *compRT, v graph.V, sc *rowScratch) []int32 {
	row := e.loc.near(v, sc)
	if t, ok := c.psi.(fo.Truth); ok {
		e.ctr.localEvals.Add(int64(len(row)))
		if t.Value {
			dst = append(dst, row...)
		}
		return dst
	}
	if !e.q.Guarded || !c.quantFree {
		sc.vals[0] = v
		for _, w := range row {
			sc.vals[1] = graph.V(w)
			if e.evalLocal(c, sc.vals[:]) {
				dst = append(dst, w)
			}
		}
		return dst
	}
	e.ctr.localEvals.Add(int64(len(row)))
	env := e.scratch.envPool.Get().(fo.Env)
	clear(env)
	ev := e.scratch.evaluator(e)
	env[c.vars[0]] = v
	for _, w := range row {
		env[c.vars[1]] = graph.V(w)
		if ev.Eval(c.psi, env) {
			dst = append(dst, w)
		}
	}
	e.scratch.evPool.Put(ev)
	e.scratch.envPool.Put(env)
	return dst
}

// buildPartners fills c.partners in one pass over the vertices, in shards of
// consecutive vertices when the pool has workers: a row is a function of its
// vertex and the shards are joined in vertex order, so the store is the same
// for every pool, two arrays of exact length.
func (e *Engine) buildPartners(c *compRT, pool *par.Pool) error {
	n := e.g.N()
	shards := 1
	if pool.Workers() > 1 && n >= 1024 {
		shards = min(4*pool.Workers(), n)
	}
	per := (n + shards - 1) / shards
	type run struct{ ends, cells []int32 }
	runs := make([]run, shards)
	var tooMany atomic.Bool
	pool.ForEach(shards, func(s int) {
		lo := min(s*per, n)
		hi := min(lo+per, n)
		r := &runs[s]
		r.ends = make([]int32, 0, hi-lo)
		sc := &rowScratch{g: e.g}
		defer sc.release()
		for v := lo; v < hi && !tooMany.Load(); v++ {
			r.cells = e.appendPartners(r.cells, c, v, sc)
			if len(r.cells) > math.MaxInt32 {
				tooMany.Store(true)
			}
			r.ends = append(r.ends, int32(len(r.cells)))
		}
	})
	total := 0
	for i := range runs {
		total += len(runs[i].cells)
	}
	if tooMany.Load() || total > math.MaxInt32 {
		return fmt.Errorf("core: the partner rows of positions %v on %v do not fit 2³¹ entries", c.positions, e.g)
	}
	off, cells := make([]int32, 1, n+1), make([]int32, 0, total)
	for i := range runs {
		base := int32(len(cells))
		for _, end := range runs[i].ends {
			off = append(off, base+end)
		}
		cells = append(cells, runs[i].cells...)
	}
	c.partners = graph.FromFlat(off, cells)
	return nil
}

// repartner is buildPartners for a write: c2, the successor of c in e2, gets
// c's store with the rows of the affected anchors (sorted) recomputed — the
// rows that came out different patched in, every block without one shared —
// and now[i] says whether affected[i] has a partner left.
func (e2 *Engine) repartner(c2, c *compRT, affected []graph.V, now []bool) {
	sc := &rowScratch{g: e2.g}
	defer sc.release()
	var cells []int32
	ends := make([]int, len(affected))
	for i, v := range affected {
		cells = e2.appendPartners(cells, c2, v, sc)
		ends[i] = len(cells)
	}
	var vs []graph.V
	var rows [][]int32
	from := 0
	for i, v := range affected {
		row := cells[from:ends[i]]
		from = ends[i]
		now[i] = len(row) > 0
		if !slices.Equal(row, c.partners.Row(v)) {
			vs, rows = append(vs, v), append(rows, row)
		}
	}
	c2.partners = c.partners.Patch(vs, rows)
}

// adoptPartners is buildPartners for a restore: the saved CSR pair once it is
// known to be n ascending vertex rows (what nextPartner and pairHolds rely on
// to stay inside the arrays), or, for a file older than the rows, the build
// pass. Either way the starter list the file carries must be the anchors
// with a partner.
func (e *Engine) adoptPartners(c *compRT, saved *RowParts, pool *par.Pool) error {
	if saved == nil {
		if err := e.buildPartners(c, pool); err != nil {
			return err
		}
	} else {
		if err := graph.CheckRows(saved.Off, saved.Adj, e.g.N(), e.g.N()); err != nil {
			return fmt.Errorf("partner rows: %w", err)
		}
		c.partners = graph.FromFlat(saved.Off, saved.Adj)
	}
	for v := range c.inStart.Len() {
		if c.inStart.Has(v) != (c.partners.Len(v) > 0) {
			return fmt.Errorf("starter list is not the vertices with a partner (vertex %d)", v)
		}
	}
	return nil
}

// pairHolds reports ψ(v, w) with the type edge, for c.paired(): one binary
// search in the row of v.
//
//fod:hotpath
func (c *compRT) pairHolds(v, w graph.V) bool {
	row := c.partners.Row(v)
	i := searchInt32(row, int32(w))
	return i < len(row) && row[i] == int32(w)
}

// nextPartner is Case II for c.paired(), at position j = c.last: the
// smallest w ≥ lower in the partner row of the component's first value that
// is far from the prefix values of every other component. A seek is one
// binary search. A step is none: fr.at, when set, is the index behind the
// candidate last returned for this prefix, and the search asks a frame it has
// not reset for nothing but that candidate's successor (search, answer.go) —
// the position is taken as it stands.
//
//fod:hotpath
func (e *Engine) nextPartner(rt *clauseRT, c *compRT, j int, prefix []graph.V, lower graph.V, fr *frame) graph.V {
	first := c.positions[0]
	row := c.partners.Row(prefix[first])
	i := 0
	if fr != nil {
		i = int(fr.at)
	}
	if i == 0 {
		i = searchInt32(row, int32(lower))
	}
scan:
	for ; i < len(row); i++ {
		w := graph.V(row[i])
		for p, u := range prefix {
			if p != first && e.loc.within(u, w) != rt.clause.Type.Close(p, j) {
				continue scan
			}
		}
		if fr != nil {
			fr.at = int32(i + 1)
		}
		return w
	}
	return -1
}
