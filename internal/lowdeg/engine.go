// Package lowdeg implements the low-degree constant-delay enumeration
// engine of Durand, Schweikardt & Segoufin, "Enumerating Answers to
// First-Order Queries over Databases of Low Degree" (PODS 2014) — the
// cheaper sibling of the nowhere-dense engine in internal/core, for the
// common case where the input graph has bounded maximum degree d.
//
// On such graphs every radius-r neighborhood N_r(v) has at most
// 1 + d·(d−1)^{r−1}·r ≤ d^r + 1 vertices, so the whole machinery the
// general engine needs to tame unbounded neighborhoods — neighborhood
// covers, R-kernels, skip pointers, a bag-sharded distance index — can be
// dropped. Preprocessing materializes, per vertex, the sorted distance-R
// ball (one CSR array) and, for arities ≥ 3, the sorted radius-R(k−1)
// ball that contains every completion of a type component. Distance-type
// tests become binary searches in these constant-size rows, and the
// Case I "next far candidate" search is a forward scan of the sorted
// starter list: every rejected candidate lies in the R-ball of one of the
// ≤ k−1 prefix elements, so at most (k−1)·d^R entries are skipped before
// the scan succeeds or leaves the obstruction — constant delay for
// constant d.
//
// The engine answers through the same contract as core.Engine (NextGeq,
// NextLast, Test, Enumerate, Count, FastCount, Iterator) and is
// differential-tested against it and the naive oracle by the
// internal/conform battery; queries are consumed in the identical
// decomposed LocalQuery form, so the two engines are interchangeable
// behind the repro facade.
package lowdeg

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/fo"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/par"
)

// Options tunes Preprocess.
type Options struct {
	// Parallelism bounds the preprocessing worker count. 0 selects
	// runtime.GOMAXPROCS(0); 1 reproduces the sequential build bit for
	// bit. Any value yields an identical engine.
	Parallelism int
	// Ctx, when non-nil, bounds the preprocessing: it is checked between
	// the ball and per-clause starter phases. Nil means no deadline.
	Ctx context.Context
	// Obs, when non-nil, registers the answering counters (lowdeg.*) and
	// structural gauges. Nil keeps the engine uninstrumented.
	Obs *obs.Registry
}

// Stats reports preprocessing facts and running counters of the answering
// phase.
type Stats struct {
	MaxDegree    int   // max vertex degree of the input graph
	BallRadius   int   // R, the distance-type threshold
	CompRadius   int   // R·(k−1), the component-completion radius
	BallEntries  int   // Σ_v |N_R(v)|, the size of the distance structure
	CompEntries  int   // Σ_v |N_{R(k−1)}(v)| (equals BallEntries for k ≤ 2)
	StarterSizes []int // per (clause, component) starter-list size

	Candidates    int // candidates examined by NextGeq calls
	DeadEnds      int // candidates rejected after deeper levels failed
	LocalEvals    int // local formula evaluations (memo misses)
	LocalEvalHits int // memo hits

	Workers     int           // preprocessing parallelism used
	BallWall    time.Duration // wall time of the ball materialization
	StarterWall time.Duration // wall time of starter-list computation

	// Mutations counts the effective ApplyEdits generations since the
	// from-scratch build; every one is a full rebuild, so MutRebuilds
	// always equals it (both fields mirror core.Stats).
	Mutations   int
	MutRebuilds int
}

// counters holds the answering-phase statistics as atomic instruments so
// concurrent queries can bump them without a lock.
type counters struct {
	candidates    obs.Counter
	deadEnds      obs.Counter
	localEvals    obs.Counter
	localEvalHits obs.Counter
}

// Engine is the preprocessed low-degree structure for one graph and one
// LocalQuery. Preprocess must complete before use; afterwards the
// answering methods are safe for concurrent use (pooled BFS scratch,
// concurrent memo maps, atomic counters).
type Engine struct {
	g   *graph.Graph
	q   *core.LocalQuery
	k   int
	r   int // distance-type threshold R
	rho int // local radius ρ

	// ballR is the CSR of sorted radius-R balls: row v (between offsets
	// ballROff[v] and ballROff[v+1]) lists N_R(v) ascending, v included.
	// The dist(a,b) ≤ R test of the answering phase is one binary search
	// in row a — the low-degree replacement for the dist.Index.
	ballROff []int32
	ballRAdj []int32
	// ballC is the CSR of sorted radius-R(k−1) balls, the candidate space
	// for completing a type component around its first element. For
	// k ≤ 2 the radii coincide and ballC aliases ballR.
	ballCOff []int32
	ballCAdj []int32

	clauses []*clauseRT
	liveIdx []int // indices into q.Clauses of guard-surviving clauses

	bfsPool sync.Pool // *graph.BFS on g, for local evaluations
	evPool  sync.Pool // *fo.Evaluator on g, for guarded local evaluations
	envPool sync.Pool // fo.Env scratch for guarded local evaluations

	opt    Options // retained for the ApplyEdits rebuild path
	stats  Stats
	ctr    counters
	obsReg *obs.Registry
}

// clauseRT is the runtime form of one clause.
type clauseRT struct {
	clause  *core.Clause
	comps   []*compRT
	compOf  []int // position -> index into comps
	firstOf []int // position -> earliest position of its component
}

// compRT is the runtime form of one component formula.
type compRT struct {
	positions []int
	typ       *fo.DistType
	psi       fo.Formula
	vars      []fo.Var // PosVar of each position, aligned with positions
	last      int      // max position (where ψ gets tested)

	starter      []graph.V // sorted vertices that can open the component
	inStart      []bool    // membership, indexed by vertex
	starterReady bool      // singleton component: inStart is the solution set

	memo sync.Map // tupleKey -> bool, local evaluation memo
}

// Preprocess builds the low-degree index: sorted per-vertex balls and
// per-clause starter lists. Cost O(n · d^{R(k−1)} · eval) — linear for
// constant degree — with no cover, kernels or skip pointers.
func Preprocess(g *graph.Graph, q *core.LocalQuery, opt Options) (*Engine, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	ctx := opt.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	checkpoint := func() error {
		select {
		case <-ctx.Done():
			return fmt.Errorf("lowdeg: preprocessing canceled: %w", context.Cause(ctx))
		default:
			return nil
		}
	}
	if err := checkpoint(); err != nil {
		return nil, err
	}
	e := &Engine{g: g, q: q, k: q.K, r: q.R, rho: q.LocalRadius, opt: opt, obsReg: opt.Obs}
	e.bfsPool.New = func() any { return graph.NewBFS(g) }
	e.evPool.New = func() any { return fo.NewEvaluator(g) }
	e.envPool.New = func() any { return fo.Env{} }
	workers := par.Resolve(opt.Parallelism)
	pool := par.NewPool(workers)
	e.stats.Workers = workers
	e.stats.MaxDegree = g.MaxDegree()
	e.stats.BallRadius = e.r
	compR := e.r * (e.k - 1)
	if compR < e.r {
		compR = e.r // k = 1: keep one usable radius
	}
	e.stats.CompRadius = compR

	start := time.Now()
	e.ballROff, e.ballRAdj = ballCSR(g, e.r, pool)
	e.stats.BallEntries = len(e.ballRAdj)
	if compR == e.r {
		e.ballCOff, e.ballCAdj = e.ballROff, e.ballRAdj
	} else {
		e.ballCOff, e.ballCAdj = ballCSR(g, compR, pool)
	}
	e.stats.CompEntries = len(e.ballCAdj)
	e.stats.BallWall = time.Since(start)
	if err := checkpoint(); err != nil {
		return nil, err
	}

	// Evaluate guards once (the ξ^i_τ sentences of Theorem 5.4) and drop
	// failing clauses, exactly as the core engine does.
	var live []core.Clause
	for ci := range q.Clauses {
		if q.Guards != nil && q.Guards[ci] != nil {
			gd := q.Guards[ci]
			holds := fo.NewEvaluator(g).Eval(gd.Sentence, fo.Env{})
			if holds == gd.Negated {
				continue
			}
		}
		e.liveIdx = append(e.liveIdx, ci)
		live = append(live, q.Clauses[ci])
	}

	for ci := range live {
		if err := checkpoint(); err != nil {
			return nil, err
		}
		e.clauses = append(e.clauses, e.buildClause(&live[ci], pool))
	}
	e.exportInstruments(opt.Obs)
	return e, nil
}

// ballCSR materializes the sorted radius-r ball of every vertex as one
// flat CSR array. Each vertex owns its row, so the per-vertex BFS fans
// out across the pool and the result is worker-count-independent.
func ballCSR(g *graph.Graph, r int, pool *par.Pool) ([]int32, []int32) {
	n := g.N()
	rows := make([][]int32, n)
	nw := pool.Workers()
	scratch := make([]*graph.BFS, nw)
	for w := range scratch {
		scratch[w] = graph.NewBFS(g)
	}
	pool.ForEachWorker(n, func(wk, v int) {
		ball := scratch[wk].BallMulti([]graph.V{v}, r)
		row := make([]int32, len(ball))
		copy(row, ball)
		slices.Sort(row)
		rows[v] = row
	})
	off := make([]int32, n+1)
	total := 0
	for v := 0; v < n; v++ {
		total += len(rows[v])
		off[v+1] = int32(total)
	}
	adj := make([]int32, total)
	for v := 0; v < n; v++ {
		copy(adj[off[v]:off[v+1]], rows[v])
	}
	return off, adj
}

func (e *Engine) buildClause(cl *core.Clause, pool *par.Pool) *clauseRT {
	rt := &clauseRT{
		clause:  cl,
		compOf:  make([]int, e.k),
		firstOf: make([]int, e.k),
	}
	start := time.Now()
	for li := range cl.Locals {
		lf := &cl.Locals[li]
		c := &compRT{
			positions: lf.Positions,
			typ:       cl.Type,
			psi:       lf.Psi,
			last:      lf.Positions[len(lf.Positions)-1],
		}
		for _, p := range lf.Positions {
			c.vars = append(c.vars, core.PosVar(p))
			rt.compOf[p] = li
			rt.firstOf[p] = lf.Positions[0]
		}
		e.computeStarter(c, pool)
		e.stats.StarterSizes = append(e.stats.StarterSizes, len(c.starter))
		rt.comps = append(rt.comps, c)
	}
	e.stats.StarterWall += time.Since(start)
	return rt
}

// computeStarter fills c.starter: the vertices that can take the
// component's first position. Singleton components get the full unary
// solution list (starterReady: later evaluations answer from the bitmap
// in O(1)); multi-position components search the R(k−1)-ball around each
// vertex for a completion respecting the internal distance pattern.
func (e *Engine) computeStarter(c *compRT, pool *par.Pool) {
	c.inStart = make([]bool, e.g.N())
	pool.ForEach(e.g.N(), func(v int) {
		if len(c.positions) == 1 {
			c.inStart[v] = e.evalLocal(c, []graph.V{v})
		} else {
			c.inStart[v] = e.completesComponent(c, []graph.V{v})
		}
	})
	for v, in := range c.inStart {
		if in {
			c.starter = append(c.starter, v)
		}
	}
	if len(c.positions) == 1 {
		c.starterReady = true
	}
}

// completesComponent reports whether the partial component assignment
// (values for c.positions[:len(vals)]) extends to a full local solution,
// searching candidates in the R(k−1)-ball of the first value — which
// contains every completion, since component positions are chained by
// close edges of length ≤ R.
func (e *Engine) completesComponent(c *compRT, vals []graph.V) bool {
	if len(vals) == len(c.positions) {
		return e.checkComponentType(c, vals) && e.localEval(c, vals)
	}
	row := e.ballCRow(vals[0])
	for _, w32 := range row {
		w := graph.V(w32)
		if e.partialTypeOK(c, vals, w) && e.completesComponent(c, append(vals, w)) {
			return true
		}
	}
	return false
}

// partialTypeOK checks the distance-type edges between the prospective
// value w (for position c.positions[len(vals)]) and the placed values.
func (e *Engine) partialTypeOK(c *compRT, vals []graph.V, w graph.V) bool {
	pj := c.positions[len(vals)]
	for i, v := range vals {
		pi := c.positions[i]
		if e.within(v, w) != c.typ.Close(pi, pj) {
			return false
		}
	}
	return true
}

// checkComponentType re-verifies all internal type edges of the component.
func (e *Engine) checkComponentType(c *compRT, vals []graph.V) bool {
	for i := range vals {
		for j := i + 1; j < len(vals); j++ {
			if e.within(vals[i], vals[j]) != c.typ.Close(c.positions[i], c.positions[j]) {
				return false
			}
		}
	}
	return true
}

// localEval evaluates ψ_I(ā_I) with memoization, branching exactly as the
// core engine does: compiler-certified (Guarded) queries evaluate over
// the global graph with quantifiers restricted to the ρ-ball domain (no
// subgraph construction — every quantifier is witness-guarded within ρ,
// so the two semantics agree); hand-built queries get the literal
// G[N_ρ(ā_I)] induced-subgraph semantics of core.EvalReference.
func (e *Engine) localEval(c *compRT, vals []graph.V) bool {
	if c.starterReady && len(vals) == 1 {
		return c.inStart[vals[0]]
	}
	//fod:coldpath memo key of the general-component path — singleton components (the pinned 0-alloc guards) take the starterReady fast path above
	key := tupleKey(vals)
	if r, ok := c.memo.Load(key); ok {
		e.ctr.localEvalHits.Add(1)
		return r.(bool)
	}
	res := e.evalLocal(c, vals)
	c.memo.Store(key, res)
	return res
}

// evalLocal is localEval without the memo. computeStarter calls it directly
// for singleton components: each vertex is evaluated once there and inStart
// is the memo from then on, so an entry per vertex in c.memo would never be
// read again.
func (e *Engine) evalLocal(c *compRT, vals []graph.V) bool {
	e.ctr.localEvals.Add(1)
	var res bool
	if e.q.Guarded {
		bfs := e.bfsPool.Get().(*graph.BFS)
		ball := bfs.BallMulti(vals, e.rho)
		domain := make([]graph.V, len(ball))
		for i, w := range ball {
			domain[i] = int(w)
		}
		e.bfsPool.Put(bfs)
		env := e.envPool.Get().(fo.Env)
		clear(env)
		for i, v := range vals {
			env[c.vars[i]] = v
		}
		ev := e.evPool.Get().(*fo.Evaluator)
		res = ev.EvalOver(c.psi, env, domain)
		e.evPool.Put(ev)
		e.envPool.Put(env)
	} else {
		// Hand-built (uncertified) queries only: the pinned 0-alloc delay
		// guards all run compiler-certified queries, and the memo above
		// makes this a once-per-tuple cost, not a per-answer one.
		//fod:coldpath memoized fallback for uncertified queries
		res = e.exactBallEval(c, vals)
	}
	return res
}

func (e *Engine) exactBallEval(c *compRT, vals []graph.V) bool {
	bfs := e.bfsPool.Get().(*graph.BFS)
	ball := bfs.BallMulti(vals, e.rho)
	vs := make([]graph.V, len(ball))
	for i, w := range ball {
		vs[i] = int(w)
	}
	e.bfsPool.Put(bfs)
	sub := graph.Induce(e.g, vs)
	ev := fo.NewCachedEvaluator(sub.G)
	env := fo.Env{}
	for i, v := range vals {
		env[c.vars[i]] = sub.Local(v)
	}
	return ev.Eval(c.psi, env)
}

func tupleKey(vals []graph.V) string {
	b := make([]byte, 0, len(vals)*5)
	for _, v := range vals {
		for v >= 0x80 {
			b = append(b, byte(v)|0x80)
			v >>= 7
		}
		b = append(b, byte(v))
	}
	return string(b)
}

// within reports dist_G(a, b) ≤ R by binary search in the sorted ball row
// of a — the low-degree replacement for dist.Index.Within.
//
//fod:hotpath
func (e *Engine) within(a, b graph.V) bool {
	if a == b {
		return true
	}
	row := e.ballRAdj[e.ballROff[a]:e.ballROff[a+1]]
	lo, hi := 0, len(row)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if row[mid] < int32(b) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(row) && row[lo] == int32(b)
}

// ballCRow returns the sorted radius-R(k−1) ball of v.
//
//fod:hotpath
func (e *Engine) ballCRow(v graph.V) []int32 {
	return e.ballCAdj[e.ballCOff[v]:e.ballCOff[v+1]]
}

// exportInstruments registers the engine's counters and structural gauges
// in reg; a nil registry leaves the engine uninstrumented.
func (e *Engine) exportInstruments(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.RegisterCounter("lowdeg.candidates", &e.ctr.candidates)
	reg.RegisterCounter("lowdeg.dead_ends", &e.ctr.deadEnds)
	reg.RegisterCounter("lowdeg.local_evals", &e.ctr.localEvals)
	reg.RegisterCounter("lowdeg.local_eval_hits", &e.ctr.localEvalHits)
	reg.Gauge("lowdeg.workers").Set(int64(e.stats.Workers))
	reg.Gauge("lowdeg.max_degree").Set(int64(e.stats.MaxDegree))
	reg.Gauge("lowdeg.ball_entries").Set(int64(e.stats.BallEntries))
	reg.Gauge("lowdeg.clauses").Set(int64(len(e.clauses)))
}

// Stats returns an isolated snapshot of the current statistics.
func (e *Engine) Stats() Stats {
	s := e.stats
	s.StarterSizes = append([]int(nil), e.stats.StarterSizes...)
	s.Candidates = int(e.ctr.candidates.Load())
	s.DeadEnds = int(e.ctr.deadEnds.Load())
	s.LocalEvals = int(e.ctr.localEvals.Load())
	s.LocalEvalHits = int(e.ctr.localEvalHits.Load())
	return s
}

// Obs returns the registry the engine records into (nil when built
// without Options.Obs).
func (e *Engine) Obs() *obs.Registry { return e.obsReg }

// Graph returns the underlying graph.
func (e *Engine) Graph() *graph.Graph { return e.g }

// Query returns the query the engine was built for.
func (e *Engine) Query() *core.LocalQuery { return e.q }

// ApplyEdits returns an engine answering the query over the edited graph.
// The low-degree engine has no incremental path: preprocessing is already
// linear with a small constant, so the documented fallback is to patch
// the graph copy-on-write and rebuild from scratch with the same options
// (the conformance battery covers this route). A batch that nets out to
// the identity returns the receiver unchanged.
func (e *Engine) ApplyEdits(ctx context.Context, edits []graph.Edit) (*Engine, error) {
	g2, err := graph.Patch(e.g, edits)
	if err != nil {
		return nil, err
	}
	if graph.Equal(g2, e.g) {
		return e, nil
	}
	opt := e.opt
	opt.Ctx = ctx
	e2, err := Preprocess(g2, e.q, opt)
	if err != nil {
		return nil, err
	}
	e2.stats.Mutations = e.stats.Mutations + 1
	e2.stats.MutRebuilds = e.stats.MutRebuilds + 1
	return e2, nil
}

// Explain renders the engine structure — the low-degree analogue of the
// core engine's EXPLAIN output.
func (e *Engine) Explain() string {
	s := fmt.Sprintf("lowdeg engine: k=%d R=%d ρ=%d\n", e.k, e.r, e.rho)
	s += fmt.Sprintf("  graph: n=%d m=%d maxdeg=%d\n", e.g.N(), e.g.M(), e.stats.MaxDegree)
	s += fmt.Sprintf("  balls: radius %d (%d entries), completion radius %d (%d entries)\n",
		e.stats.BallRadius, e.stats.BallEntries, e.stats.CompRadius, e.stats.CompEntries)
	for ci, rt := range e.clauses {
		s += fmt.Sprintf("  clause %d: type %s\n", ci, rt.clause.Type)
		for _, c := range rt.comps {
			s += fmt.Sprintf("    component %v: |starter|=%d psi=%s\n", c.positions, len(c.starter), c.psi)
		}
	}
	return s
}
