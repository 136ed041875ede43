package core

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/fo"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/skip"
)

// Options tunes engine preprocessing.
type Options struct {
	// Parallelism bounds the preprocessing worker count. 0 selects
	// runtime.GOMAXPROCS(0); 1 reproduces the sequential build bit for
	// bit. Any value yields an identical engine — parallelism changes
	// wall time, never the structure or the answers.
	Parallelism int
	// Ctx, when non-nil, bounds the preprocessing: Preprocess checks it
	// between phases (dist → cover → kernel, or balls; then per-clause
	// starter/skip) and returns the context error once it is canceled or
	// past its deadline. The answering phase is unaffected — checkpoints
	// exist only where the pseudo-linear build spends its time. Nil means
	// no deadline.
	Ctx context.Context
	// Obs, when non-nil, receives the phase spans — one clock read per
	// phase, as span.<path>_ns / _count and, when Ctx carries a request
	// trace, in that trace: preprocess.dist → .cover → .kernel → .starter →
	// .skip (or preprocess.balls → .starter), the restore.* tree of
	// RestoreEngine and the mutate.* tree of ApplyEdits. Nothing else goes
	// through it: structure and answering work are per index, in Stats and
	// Explain.
	Obs *obs.Registry
}

// Stats reports preprocessing facts and running counters of the answering
// phase. The cover, dist and skip fields are zero under the ball locality,
// the ball fields under the cover locality.
//
// Candidates and DeadEnds are counted by each clause search in its own
// cursor and folded into the engine at the end of a NextGeq, at an
// Iterator's Seek and exhaustion, at the end of an Enumerate, and every 256
// answers an Iterator hands out in between: exact at those points, they
// trail a live Iterator by less than 256 answers' worth.
type Stats struct {
	CoverRadius   int
	CoverBags     int
	CoverDegree   int
	MaxDegree     int   // max vertex degree of the input graph (ball locality)
	BallEntries   int   // Σ_v |N_R(v)| materialized by the ball locality
	CompEntries   int   // Σ_v |N_{R(k−1)}(v)| (equals BallEntries for k ≤ 2)
	StarterSizes  []int // per (clause, component) starter-list size
	SkipTables    int   // distinct skip-pointer tables (one a starter list that a component opens on behind a prefix)
	SkipPointers  int   // total materialized skip pointers, a shared table counted once
	PartnerCells  int   // Σ row lengths of the partner rows, over the components of two positions
	Candidates    int   // values the clause search placed at a position (NextGeq, Seek: k a match; Next: about one), as of the last fold
	DeadEnds      int   // placed values rejected after deeper positions failed
	LocalEvals    int   // local formula evaluations: the build's, and the memo misses of components of ≥ 3 positions
	LocalEvalHits int   // memo hits

	Workers int // preprocessing parallelism used

	Mutations   int // ApplyEdits generations since the from-scratch build
	MutAffected int // vertices the last ApplyEdits came back to: the edited ones, or the largest region of starter slots a component re-tested
	MutRebuilds int // ApplyEdits calls that fell back to a full Preprocess
}

// counters holds the answering-phase statistics of this engine as atomics,
// so concurrent queries can bump them without a lock; Stats() folds them
// into the snapshot it returns.
type counters struct {
	candidates    atomic.Int64
	deadEnds      atomic.Int64
	localEvals    atomic.Int64
	localEvalHits atomic.Int64
}

// Engine is the preprocessed structure of Theorem 2.3 for one graph and one
// LocalQuery. Preprocess must complete before use; afterwards the
// answering methods (NextGeq, NextLast, Test, Enumerate, Count,
// FastCount, Stats) are safe for concurrent use — query-time scratch is
// pooled per goroutine and the lazy caches are concurrent maps.
//
// Everything the engine asks about distances goes through loc (see
// locality): the paper's cover machinery or, on bounded-degree graphs,
// precomputed balls.
type Engine struct {
	g   *graph.Graph
	q   *LocalQuery
	k   int
	r   int // distance-type threshold R
	rho int // local radius ρ

	loc     locality
	kind    *locKind     // which locality loc is; the ApplyEdits rebuild path builds the same
	scratch *scratchPool // query-time scratch, shared with the versions ApplyEdits derives

	clauses []*clauseRT
	liveIdx []int            // indices into q.Clauses of guard-surviving clauses
	tables  []*skip.Pointers // the distinct skip tables behind the components (tally)
	stats   Stats
	ctr     counters
	obsReg  *obs.Registry // where ApplyEdits opens its spans; nil when built without Options.Obs
}

// scratchPool hands out per-goroutine query-time scratch: evaluators and
// environments for the guarded local evaluations (BFS state is borrowed from
// package graph's pool). An engine shares it with every version ApplyEdits
// derives from it — the versions of a graph have one vertex set, so scratch
// sized for one serves any of them once it is bound to the caller's graph,
// which evaluator does. A write then allocates no scratch of its own; and no
// version outlives its last reader, as it would with pools of its own: a
// sync.Pool that has been used stays reachable from the runtime for two more
// collections, and with it whatever it is a field of (at 500 writes a second
// that was 40 MB of dead versions).
type scratchPool struct{ evPool, envPool sync.Pool }

func newScratchPool() *scratchPool {
	sp := &scratchPool{}
	sp.envPool.New = func() any { return fo.Env{} }
	return sp
}

// evaluator returns an evaluator on e's graph with distance atoms served by
// e's locality.
func (sp *scratchPool) evaluator(e *Engine) *fo.Evaluator {
	if ev, ok := sp.evPool.Get().(*fo.Evaluator); ok {
		ev.Rebind(e.g, e.loc.distTester())
		return ev
	}
	ev := fo.NewEvaluator(e.g)
	ev.UseDistTester(e.loc.distTester())
	return ev
}

// clauseRT is the runtime form of one clause.
type clauseRT struct {
	clause  *Clause
	comps   []*compRT
	compOf  []int // position -> index into comps
	firstOf []int // position -> earliest position of its component
}

// compRT is the runtime form of one component formula.
type compRT struct {
	positions []int
	typ       *fo.DistType // the owning clause's distance type
	psi       fo.Formula
	vars      []fo.Var // PosVar of each position, aligned with positions
	last      int      // max position (where ψ gets tested)
	quantFree bool     // ψ has no quantifier: it reads its values and nothing around them

	// Starter list for the component's first position (Case I of the
	// paper, generalized to every level that opens a new component).
	starter []graph.V     // sorted vertices that can open the component
	inStart graph.RankSet // the same vertices as a set, whose Rank(x) is the index in starter of the first ≥ x; for a singleton component the solution set

	// What the cover locality derives from the starter list; nil and empty
	// under the ball locality, which scans the list itself, and for a list no
	// component opens on behind a prefix (starterList).
	skip     *skip.Pointers
	byKernel graph.Rows[int32] // per bag: starter ∩ K_R(bag), sorted; the cover's kernel rows when every vertex starts

	// A component of two positions p < p′ is materialised (partners.go): row
	// v lists, ascending, the w ∈ N_R(v) with ψ(v, w), and every answering
	// face reads that row and nothing else. Empty for any other component.
	partners graph.Rows[int32]

	memo sync.Map // tupleKey -> bool, local evaluation memo (components of ≥ 3 positions only)
}

// paired reports whether c is a component of two positions, answered from
// c.partners.
func (c *compRT) paired() bool { return len(c.positions) == 2 }

// newEngine returns the shell Preprocess, RestoreEngine and ApplyEdits
// fill in: the query constants and the pooled evaluation scratch, which is
// scratch when the engine is a version of the one that owns it and fresh
// when it is nil.
func newEngine(g *graph.Graph, q *LocalQuery, kind *locKind, reg *obs.Registry, scratch *scratchPool) *Engine {
	if scratch == nil {
		scratch = newScratchPool()
	}
	return &Engine{g: g, q: q, k: q.K, r: q.R, rho: q.LocalRadius, kind: kind, obsReg: reg, scratch: scratch}
}

// Preprocess builds the Theorem 2.3 index: distance index, (2R, ·)
// neighborhood cover with R-kernels, per-clause starter lists, and skip
// pointers. Its cost is pseudo-linear on nowhere dense inputs. With
// Options.Parallelism > 1 the phases run on a worker pool; the resulting
// engine is identical to the sequential build.
func Preprocess(g *graph.Graph, q *LocalQuery, opt Options) (*Engine, error) {
	return preprocess(g, q, opt, coverKind)
}

// PreprocessBalls builds the same engine over the ball locality: sorted
// per-vertex balls instead of distance index, cover, kernels and skip
// pointers. Cost O(n · d^{R(k−1)} · eval) on a graph of maximum degree d —
// linear for constant degree. internal/lowdeg is its public name.
func PreprocessBalls(g *graph.Graph, q *LocalQuery, opt Options) (*Engine, error) {
	return preprocess(g, q, opt, ballKind)
}

func preprocess(g *graph.Graph, q *LocalQuery, opt Options, kind *locKind) (*Engine, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	ctx := opt.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	// checkpoint aborts the build between phases once ctx is done. The
	// phases themselves run to completion; on nowhere dense inputs each is
	// pseudo-linear, so cancellation latency is one phase, not one build.
	checkpoint := func() error {
		select {
		case <-ctx.Done():
			return fmt.Errorf("core: preprocessing canceled: %w", context.Cause(ctx))
		default:
			return nil
		}
	}
	if err := checkpoint(); err != nil {
		return nil, err
	}
	e := newEngine(g, q, kind, opt.Obs, nil)
	workers := par.Resolve(opt.Parallelism)
	pool := par.NewPool(workers)
	e.stats.Workers = workers
	// StartSpan instead of Span: when the context carries a request trace
	// (serve's singleflight build), the whole phase tree below lands in
	// that trace under its existing span names.
	root := opt.Obs.StartSpan(ctx, "preprocess")

	var err error
	if e.loc, err = kind.build(e, pool, root, checkpoint); err != nil {
		return nil, err
	}

	// Evaluate guards once (the ξ^i_τ sentences of Theorem 5.4) and drop
	// failing clauses. The surviving indices are recorded so a snapshot can
	// restore the exact clause set without re-evaluating the guards.
	e.liveIdx = liveClauses(g, q)
	for _, ci := range e.liveIdx {
		if err := checkpoint(); err != nil {
			return nil, err
		}
		rt, err := e.buildClause(&q.Clauses[ci], pool, root, checkpoint)
		if err != nil {
			return nil, err
		}
		e.clauses = append(e.clauses, rt)
	}
	for _, l := range e.starterLists() {
		if err = checkpoint(); err == nil {
			err = e.loc.indexStarter(l.comps[0], l.need, nil, pool, root)
		}
		if err != nil {
			return nil, err
		}
		for _, c := range l.comps[1:] {
			c.shareStarter(l.comps[0])
		}
	}
	root.End()
	e.tally()
	return e, nil
}

// liveClauses returns the indices of q's clauses whose guard holds in g.
func liveClauses(g *graph.Graph, q *LocalQuery) []int {
	var live []int
	for ci := range q.Clauses {
		if q.Guards != nil && q.Guards[ci] != nil {
			gd := q.Guards[ci]
			if fo.NewEvaluator(g).Eval(gd.Sentence, fo.Env{}) == gd.Negated {
				continue
			}
		}
		live = append(live, ci)
	}
	return live
}

// Obs returns the registry the engine opens its spans in (nil when built
// without Options.Obs).
func (e *Engine) Obs() *obs.Registry { return e.obsReg }

// newClauseRT returns the runtime frame of cl, its components still to
// come (newComp).
func (e *Engine) newClauseRT(cl *Clause) *clauseRT {
	return &clauseRT{clause: cl, compOf: make([]int, e.k), firstOf: make([]int, e.k)}
}

// newComp returns the runtime form of rt's component li with its static
// fields set. The caller appends it to rt.comps once its starter list is
// finished, so tableFor only ever sees finished components.
func (rt *clauseRT) newComp(li int) *compRT {
	lf := &rt.clause.Locals[li]
	c := &compRT{
		positions: lf.Positions,
		typ:       rt.clause.Type,
		psi:       lf.Psi,
		last:      lf.Positions[len(lf.Positions)-1],
		quantFree: fo.QuantifierRank(lf.Psi) == 0,
	}
	for _, p := range lf.Positions {
		c.vars = append(c.vars, PosVar(p))
		rt.compOf[p] = li
		rt.firstOf[p] = lf.Positions[0]
	}
	return c
}

// buildClause computes the starter lists of cl's components; what the
// locality derives from a list waits until every live clause has its lists
// (starterLists).
func (e *Engine) buildClause(cl *Clause, pool *par.Pool, trace *obs.Span, checkpoint func() error) (*clauseRT, error) {
	rt := e.newClauseRT(cl)
	for li := range cl.Locals {
		c := rt.newComp(li)
		sp := trace.Child("starter")
		err := e.computeStarter(c, pool)
		sp.End()
		if err != nil {
			return nil, err
		}
		e.stats.StarterSizes = append(e.stats.StarterSizes, len(c.starter))
		if err := checkpoint(); err != nil {
			return nil, err
		}
		rt.comps = append(rt.comps, c)
	}
	return rt, nil
}

// starterList is one distinct starter list of the live clauses: the
// components that open on it, in clause order, and need, the largest set of
// bags one of them can ask Lemma 5.8 about. The lemma is stated for a list,
// not for the formula it came from — the skip pointers and the per-kernel
// lists are functions of (cover, k, list) alone — so the components of a list
// share one table, and its k is need: search asks for the next opening of a
// component under the prefix t[:positions[0]], and a prefix of j values has
// at most j canonical bags. need = 0 is a list whose components all stand
// first in their clauses: nextOpening reads neither table nor per-kernel
// lists without a prefix, and none are made.
type starterList struct {
	comps []*compRT
	need  int
}

// starterLists is the plan every table is made, kept and accepted by: e's
// components grouped by equal starter list.
func (e *Engine) starterLists() []starterList {
	var lists []starterList
	for _, rt := range e.clauses {
		for _, c := range rt.comps {
			i := slices.IndexFunc(lists, func(l starterList) bool { return slices.Equal(l.comps[0].starter, c.starter) })
			if i < 0 {
				i, lists = len(lists), append(lists, starterList{})
			}
			lists[i].comps, lists[i].need = append(lists[i].comps, c), max(lists[i].need, c.positions[0])
		}
	}
	return lists
}

// tableFor returns a component of a finished clause, or of rt, the clause
// being assembled, whose starter list equals starter and whose skip pointers
// answer bag sets of size k, or nil: a write that has to make pointers for a
// list anew makes them once (patchStarter).
func (e *Engine) tableFor(rt *clauseRT, starter []graph.V, k int) *compRT {
	for _, cl := range append(slices.Clip(e.clauses), rt) {
		for _, d := range cl.comps {
			if d.skip != nil && d.skip.K() >= k && slices.Equal(d.starter, starter) {
				return d
			}
		}
	}
	return nil
}

// shareStarter makes c use d's starter list, which equals its own, and
// everything derived from the list alone.
func (c *compRT) shareStarter(d *compRT) {
	c.starter, c.inStart, c.skip, c.byKernel = d.starter, d.inStart, d.skip, d.byKernel
}

// tally sets the statistics read off the finished components: the distinct
// skip tables behind them (kept for Explain) and their pointers, a shared
// table — or the overlays of one base — counted once, and the cells of the
// partner rows.
func (e *Engine) tally() {
	pointers, cells := 0, 0
	for _, cl := range e.clauses {
		for _, c := range cl.comps {
			if c.skip != nil && !slices.ContainsFunc(e.tables, c.skip.SharesTable) {
				e.tables = append(e.tables, c.skip)
				pointers += c.skip.Size()
			}
			cells += c.partners.Cells()
		}
	}
	e.stats.SkipTables, e.stats.SkipPointers, e.stats.PartnerCells = len(e.tables), pointers, cells
}

// computeStarter fills c.starter: the vertices v that can take the
// component's first position, i.e. for which the component has a local
// solution with first coordinate v (Step 12 of the paper for singleton
// components; a component of two positions reads it off its partner rows —
// v starts iff its row is not empty; a larger one searches the ball around v
// for a completion respecting the component's internal distance pattern).
//
// The per-vertex tests are independent — they share only the concurrent
// caches and pooled scratch — so they fan out across the pool, a task a
// word of 64 vertices writing that word of the starter set; the sorted
// starter list is read off the finished set afterwards, making the result
// worker-count-independent. A component that reads the colours of v alone
// is one pass on the caller's goroutine: a test costs less than handing the
// vertex to a worker.
func (e *Engine) computeStarter(c *compRT, pool *par.Pool) error {
	n := e.g.N()
	words := graph.PageAligned[uint64]((n + 63) / 64)
	opens := func(v int) bool { return e.opens(c, v) }
	if c.paired() {
		if err := e.buildPartners(c, pool); err != nil {
			return err
		}
		opens, pool = func(v int) bool { return c.partners.Len(v) > 0 }, par.Sequential()
	} else if e.readsOwnColours(c) {
		pool = par.Sequential()
	}
	pool.ForEach(len(words), func(w int) {
		var x uint64
		for v := w * 64; v < min(w*64+64, n); v++ {
			if opens(v) {
				x |= 1 << (v % 64)
			}
		}
		words[w] = x
	})
	// For a singleton component the list IS the unary solution list; the
	// answering phase reads the set in O(1).
	c.inStart = graph.RankSetOfWords(n, words)
	c.starter = c.inStart.AppendMembers(make([]graph.V, 0, c.inStart.Count()))
	return nil
}

// readsOwnColours reports whether inStart[v] of c is a function of the
// colour row of v alone: a singleton component whose formula the compiler
// certified and which has no quantifier. Every variable then denotes v, so
// the formula is read straight off the graph (fo.EvalAt) — one pass over
// the vertices is the Case I list of §5.2, with no evaluator, environment,
// pool or ball — and a write re-tests it where a colour changed and nowhere
// else (ApplyEditsTo).
func (e *Engine) readsOwnColours(c *compRT) bool {
	return e.q.Guarded && c.quantFree && len(c.positions) == 1
}

// opens reports whether v can take the first position of c, a component of
// one position or of three and more (a pair reads its partner rows). A
// singleton component is evaluated without the memo: each vertex is asked
// once per build and inStart is the memo from then on, so an entry per
// vertex in c.memo would never be read again.
func (e *Engine) opens(c *compRT, v graph.V) bool {
	if e.readsOwnColours(c) {
		e.ctr.localEvals.Add(1)
		return fo.EvalAt(e.g, c.psi, v)
	}
	if len(c.positions) == 1 {
		return e.evalLocal(c, []graph.V{v})
	}
	return e.completesComponent(c, []graph.V{v})
}

// completesComponent reports whether the partial component assignment
// (values for c.positions[:len(vals)]) extends to a full local solution of
// the component, searching candidates in the R(k−1)-ball of the first
// value — which contains every completion, since component positions are
// chained by close edges of length ≤ R.
func (e *Engine) completesComponent(c *compRT, vals []graph.V) bool {
	if len(vals) == len(c.positions) {
		return e.checkComponentType(c, vals) && e.localEval(c, vals)
	}
	for _, w32 := range e.loc.compBall(vals[0]) {
		w := graph.V(w32)
		if e.partialTypeOK(c, vals, w) && e.completesComponent(c, append(vals, w)) {
			return true
		}
	}
	return false
}

// partialTypeOK checks the distance-type edges between the prospective
// value w (for position c.positions[len(vals)]) and the already placed
// component values.
func (e *Engine) partialTypeOK(c *compRT, vals []graph.V, w graph.V) bool {
	pj := c.positions[len(vals)]
	for i, v := range vals {
		if e.loc.within(v, w) != c.typ.Close(c.positions[i], pj) {
			return false
		}
	}
	return true
}

// checkComponentType re-verifies all internal type edges of the component.
func (e *Engine) checkComponentType(c *compRT, vals []graph.V) bool {
	for i := range vals {
		for j := i + 1; j < len(vals); j++ {
			if e.loc.within(vals[i], vals[j]) != c.typ.Close(c.positions[i], c.positions[j]) {
				return false
			}
		}
	}
	return true
}

// localEval evaluates ψ_I(ā_I) locally, with memoization, for a component of
// three and more positions — the part of Case II still done at answer time
// (DESIGN.md §3, substitution 4). vals is aligned with c.positions.
//
// Safe for concurrent use: the memo is a concurrent map (duplicate
// concurrent evaluations compute the same value, so racing stores are
// benign) and evaluator/BFS scratch comes from per-goroutine pools.
func (e *Engine) localEval(c *compRT, vals []graph.V) bool {
	//fod:coldpath what is left of the lazy Case II: the memo key, the memo and on a miss the evaluator, for components of ≥ 3 positions only — a singleton reads inStart, a pair its partner row, and neither comes here
	key := tupleKey(vals)
	if r, ok := c.memo.Load(key); ok {
		e.ctr.localEvalHits.Add(1)
		return r.(bool)
	}
	res := e.evalLocal(c, vals)
	c.memo.Store(key, res)
	return res
}

// evalLocal evaluates ψ_I(ā_I) with no memo: the build's evaluator (starter
// lists, partner rows) and localEval's on a miss. For guarded queries
// (compiler-certified witness bounds) the formula is evaluated on the
// global graph with distance atoms served by the locality — no subgraph
// construction at all — and it reads what it needs: a quantifier-free ψ its
// values, a quantified one N_ρ of them as well, which its quantifiers range
// over as the BFS returns it. Hand-built queries get the literal
// G[N_ρ(ā_I)] semantics of EvalReference.
func (e *Engine) evalLocal(c *compRT, vals []graph.V) bool {
	e.ctr.localEvals.Add(1)
	if !e.q.Guarded {
		bfs := graph.BorrowBFS(e.g)
		ball := bfs.BallMulti(vals, e.rho)
		vs := make([]graph.V, len(ball))
		for i, w := range ball {
			vs[i] = int(w)
		}
		bfs.Release()
		// Hand-built (uncertified) queries only, and for them in the build
		// (starters, partner rows) or behind the memo of localEval: a
		// once-per-tuple cost, not a per-answer one.
		//fod:coldpath build-time or memoized fallback for uncertified queries
		return exactBallEval(e.g, c, vals, vs)
	}
	env := e.scratch.envPool.Get().(fo.Env)
	clear(env)
	for i, v := range vals {
		env[c.vars[i]] = v
	}
	ev := e.scratch.evaluator(e)
	var res bool
	if c.quantFree {
		res = ev.Eval(c.psi, env)
	} else {
		bfs := graph.BorrowBFS(e.g)
		res = ev.EvalOver(c.psi, env, bfs.BallMulti(vals, e.rho))
		bfs.Release()
	}
	e.scratch.evPool.Put(ev)
	e.scratch.envPool.Put(env)
	return res
}

// exactBallEval is the literal G[N_ρ(ā_I)] semantics for hand-built
// (uncertified) queries: ψ_I over the subgraph induced by ball = N_ρ(vals).
func exactBallEval(g *graph.Graph, c *compRT, vals, ball []graph.V) bool {
	sub := graph.Induce(g, ball)
	env := fo.Env{}
	for i, v := range vals {
		env[c.vars[i]] = sub.Local(v)
	}
	return fo.NewCachedEvaluator(sub.G).Eval(c.psi, env)
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

// Stats returns a snapshot of the current statistics. The snapshot is
// fully isolated: slice-typed fields are deep-copied, so neither engine
// internals nor other snapshots can observe mutations of the returned
// value (and vice versa).
func (e *Engine) Stats() Stats {
	s := e.stats
	s.StarterSizes = append([]int(nil), e.stats.StarterSizes...)
	s.Candidates = int(e.ctr.candidates.Load())
	s.DeadEnds = int(e.ctr.deadEnds.Load())
	s.LocalEvals = int(e.ctr.localEvals.Load())
	s.LocalEvalHits = int(e.ctr.localEvalHits.Load())
	if _, ok := e.loc.(*ballLoc); ok {
		s.MaxDegree = e.g.MaxDegree()
	}
	return s
}

// Graph returns the underlying graph.
func (e *Engine) Graph() *graph.Graph { return e.g }

// Query returns the query the engine was built for.
func (e *Engine) Query() *LocalQuery { return e.q }

// Locality names the locality the engine runs on: LocCover or LocBalls.
func (e *Engine) Locality() string { return e.kind.name }
