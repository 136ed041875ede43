// Package repro is a from-scratch Go implementation of
//
//	Schweikardt, Segoufin, Vigny:
//	“Enumeration for FO Queries over Nowhere Dense Graphs” (PODS 2018 /
//	J. ACM 2022).
//
// It provides, for first-order queries with distance atoms (FO⁺) over
// sparse (“nowhere dense”) colored graphs:
//
//   - an Index (Theorem 2.3) built in pseudo-linear time that returns the
//     lexicographically smallest solution ≥ any given tuple in constant
//     time,
//   - constant-time solution Testing (Corollary 2.4),
//   - constant-delay Enumeration of all solutions in lexicographic order
//     (Corollary 2.5),
//   - a DistanceIndex (Proposition 4.2) for constant-time dist(a,b) ≤ r
//     tests,
//   - the Storing-Theorem data structure (Theorem 3.1) as a reusable
//     k-ary map with successor lookups,
//   - relational databases and their colored-graph encoding (Lemma 2.2).
//
// Quickstart:
//
//	g := repro.Generate("grid", 10_000, repro.GenOptions{Colors: 1})
//	q, _ := repro.ParseQuery("dist(x,y) > 2 & C0(y)", "x", "y")
//	ix, _ := repro.Build(context.Background(), g, q)
//	ix.Enumerate(func(sol []int) bool { fmt.Println(sol); return true })
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// reproduction of the paper's complexity claims.
package repro

import (
	"context"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/fo"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/rel"
	"repro/internal/store"
)

// Graph is a finite colored graph (a structure over the schema
// {E, C_0, …, C_{c−1}}). Vertices are 0..N()-1; the vertex order is the
// linear order underlying all lexicographic guarantees.
type Graph = graph.Graph

// GraphBuilder accumulates edges and colors; call Build to finalize.
type GraphBuilder = graph.Builder

// Database is a finite relational structure (Section 2 of the paper).
type Database = rel.Structure

// NewGraphBuilder returns a builder for a graph with n vertices and the
// given number of color relations.
func NewGraphBuilder(n, colors int) *GraphBuilder { return graph.NewBuilder(n, colors) }

// NewDatabase returns an empty relational structure with an n-element
// domain.
func NewDatabase(n int) *Database { return rel.NewStructure(n) }

// GenOptions forwards to the graph generators; see gen.Options.
type GenOptions = gen.Options

// Generate builds a named benchmark graph class ("path", "cycle", "star",
// "caterpillar", "btree", "rtree", "grid", "kinggrid", "bdeg",
// "sparserandom", and the dense controls "clique", "dense", "subclique").
func Generate(class string, n int, opt GenOptions) *Graph {
	return gen.Generate(gen.Class(class), n, opt)
}

// GraphClasses lists the available generator class names.
func GraphClasses() []string {
	out := make([]string, len(gen.Classes))
	for i, c := range gen.Classes {
		out[i] = string(c)
	}
	return out
}

// Query is a parsed FO⁺ query with an ordered tuple of free variables.
// A *Query is safe for concurrent use: the lazily compiled normal form is
// guarded by a sync.Once, so one Query may back many concurrent Build
// calls.
type Query struct {
	// Phi is the formula; Vars fixes the output-column order.
	Phi  fo.Formula
	Vars []fo.Var

	compileOnce sync.Once
	compiled    *core.LocalQuery
	compileErr  error
}

// ParseQuery parses a query in the textual language, e.g.
//
//	dist(x,y) > 2 & C0(y)
//	exists z (E(x,z) & E(z,y)) | E(x,y) | x = y
//
// vars fixes the order of the output columns and must cover the free
// variables of the formula.
func ParseQuery(src string, vars ...string) (*Query, error) {
	phi, err := fo.Parse(src)
	if err != nil {
		return nil, err
	}
	vs := make([]fo.Var, len(vars))
	for i, v := range vars {
		vs[i] = fo.Var(v)
	}
	return &Query{Phi: phi, Vars: vs}, nil
}

// MustParseQuery is ParseQuery that panics on error.
func MustParseQuery(src string, vars ...string) *Query {
	q, err := ParseQuery(src, vars...)
	if err != nil {
		panic(err)
	}
	return q
}

// ParseCountQuery parses a counting query in the `#vars: formula` form of
// Grohe–Schweikardt, e.g.
//
//	#x,y: dist(x,y) > 2 & C0(y)
//
// The variables before the ':' fix the counted columns (they must cover
// the formula's free variables). The result is an ordinary *Query — build
// it and call SolutionCount to evaluate `#x̄ φ`.
func ParseCountQuery(src string) (*Query, error) {
	vars, phi, err := fo.ParseCount(src)
	if err != nil {
		return nil, err
	}
	return &Query{Phi: phi, Vars: vars}, nil
}

// MustParseCountQuery is ParseCountQuery that panics on error.
func MustParseCountQuery(src string) *Query {
	q, err := ParseCountQuery(src)
	if err != nil {
		panic(err)
	}
	return q
}

// Arity returns the number of output columns.
func (q *Query) Arity() int { return len(q.Vars) }

// compile caches the decomposed normal form. The sync.Once makes the lazy
// write safe when one *Query is shared by concurrent Build calls.
func (q *Query) compile() (*core.LocalQuery, error) {
	q.compileOnce.Do(func() {
		q.compiled, q.compileErr = core.Compile(q.Phi, q.Vars, core.CompileOptions{})
	})
	return q.compiled, q.compileErr
}

// Canonical returns a canonical textual form of the query: the printed
// formula (stable under parse → String round trips) plus the output-column
// order. Two queries with equal Canonical() are the same query, whatever
// whitespace or redundant parentheses the original source used — the
// serving layer keys its index cache on it.
func (q *Query) Canonical() string {
	parts := make([]string, len(q.Vars))
	for i, v := range q.Vars {
		parts[i] = string(v)
	}
	return q.Phi.String() + " ; vars " + strings.Join(parts, ",")
}

// Index is the preprocessed structure of Theorem 2.3 for one graph and one
// query. Once built, its query methods are safe for concurrent use. An
// Index is an immutable snapshot: ApplyEdits derives the index of an
// edited graph as a new value and never modifies the receiver.
//
// There is one engine type, core.Engine. What WithEngine selects is the
// locality it is built over — the paper's cover machinery (the default) or
// the sorted balls of Durand–Schweikardt–Segoufin's bounded-degree case —
// so no method below branches on the kind: either is built, patched by
// ApplyEdits, snapshotted and restored through the same calls, and only the
// table in engine_select.go knows there are two.
type Index struct {
	eng     *core.Engine
	sel     Selection // how the engine was chosen
	k       int
	q       *Query // retained for snapshots; nil only for zero-value indexes
	version int    // mutation generation; 0 for a fresh build

	// SolutionCount cache: `#x̄ φ` is a property of the (graph, query)
	// version, so it is computed at most once per Index value. countDone
	// flips only after the once body stored the value, letting
	// SolutionCountCtx serve cache hits without entering the Once (a
	// canceled count must not poison the cache).
	countOnce sync.Once
	countDone atomic.Bool
	countVal  int
	countFast bool
}

// Metrics is an observability registry (internal/obs): atomic counters
// and gauges, log-bucket latency histograms with p50/p90/p99/max
// extraction, and phase-tracing spans, exportable as a JSON snapshot
// (WriteJSON/Snapshot) and via expvar (Publish). Pass one to
// WithMetrics to time an index's build phases, or ServeDebug to expose it
// over HTTP together with net/http/pprof.
type Metrics = obs.Registry

// NewMetrics returns an empty metrics registry.
func NewMetrics() *Metrics { return obs.New() }

// ServeDebug publishes reg via expvar and serves /debug/vars,
// /debug/metrics (JSON snapshot), and /debug/pprof/... on addr in a
// background goroutine, returning the bound listener.
func ServeDebug(addr string, reg *Metrics) (net.Listener, error) {
	return obs.ServeDebug(addr, reg)
}

// IndexOptions is the struct the Option funcs fill; see WithParallelism,
// WithMetrics and WithEngine.
type IndexOptions struct {
	// Parallelism bounds the preprocessing worker count. 0 (the default)
	// selects runtime.GOMAXPROCS(0); 1 forces the sequential build. The
	// resulting index is identical for every setting — parallelism only
	// changes build wall time.
	Parallelism int
	// Metrics, when non-nil, receives the phase spans of the index's
	// builds, restores and writes (span.preprocess.*, span.restore.*,
	// span.mutate.* histograms and counts). Answering never touches it:
	// what one index is made of and the work it does per answer are in
	// its own Stats and Explain.
	Metrics *Metrics
	// Engine selects the enumeration engine: EngineCore (also the ""
	// default), EngineLowDeg, or EngineAuto, which routes on the graph's
	// maximum degree and degeneracy. See EngineKind and WithEngine.
	Engine EngineKind
}

// Next returns the lexicographically smallest solution ≥ tuple, in
// constant time (Theorem 2.3), or ok=false if there is none.
func (ix *Index) Next(tuple []int) ([]int, bool) { return ix.eng.NextGeq(tuple) }

// Test reports whether tuple is a solution, in constant time
// (Corollary 2.4).
func (ix *Index) Test(tuple []int) bool { return ix.eng.Test(tuple) }

// NextLast returns, for a fixed (k−1)-column prefix, the smallest value
// b′ ≥ b completing it to a solution (Lemma 5.2) — "page through the
// partners of a prefix" in constant time per step.
func (ix *Index) NextLast(prefix []int, b int) (int, bool) { return ix.eng.NextLast(prefix, b) }

// Enumerate yields all solutions in increasing lexicographic order with
// constant delay (Corollary 2.5) until exhaustion or until yield returns
// false. The slice passed to yield is reused across calls.
func (ix *Index) Enumerate(yield func([]int) bool) { ix.eng.Enumerate(yield) }

// Count returns the number of solutions by full enumeration.
func (ix *Index) Count() int {
	n, _ := ix.eng.CountCtx(context.Background())
	return n
}

// FastCount returns the number of solutions without enumerating them when
// the query shape supports it (arities 1 and 2, and connected higher
// arities); it falls back to enumeration otherwise.
func (ix *Index) FastCount() int {
	n, _ := ix.SolutionCount()
	return n
}

// SolutionCount evaluates the counting query `#x̄ φ` (Grohe–Schweikardt):
// the number of solutions over the current graph version. fast reports
// whether the count was produced by the engine's sub-enumeration counting
// path rather than by full enumeration. The result is computed once and
// cached — an Index is an immutable snapshot, so the count can never go
// stale.
func (ix *Index) SolutionCount() (n int, fast bool) {
	n, fast, _ = ix.SolutionCountCtx(context.Background())
	return n, fast
}

// SolutionCountCtx is SolutionCount with cooperative cancellation: when
// the count must fall back to full enumeration, ctx is polled
// periodically and a canceled request stops after a bounded number of
// delay steps instead of running the solution set to exhaustion. The
// sub-enumeration counting path is query-shape-bounded work and never
// needs the context. A canceled call leaves the cache empty; a completed
// call populates it.
func (ix *Index) SolutionCountCtx(ctx context.Context) (n int, fast bool, err error) {
	if ix.countDone.Load() {
		return ix.countVal, ix.countFast, nil
	}
	if n, fast = ix.eng.FastCount(); !fast {
		if n, err = ix.eng.CountCtx(ctx); err != nil {
			return 0, false, err
		}
	}
	ix.countOnce.Do(func() {
		ix.countVal, ix.countFast = n, fast
		ix.countDone.Store(true)
	})
	return n, fast, nil
}

// Cursor is a pull-style cursor over the solution set in lexicographic
// order with constant-delay Next and constant-time Seek (Theorem 2.3),
// the same for every engine. Next reuses an internal buffer to stay
// allocation-free: the returned slice is valid only until the next Next
// or Seek call — copy it to retain it, exactly as with Enumerate.
type Cursor interface {
	// Seek repositions the cursor at the smallest solution ≥ a.
	Seek(a []int)
	// HasNext reports whether a solution is pending.
	HasNext() bool
	// Next returns the pending solution and advances, or ok=false when
	// the solution set is exhausted.
	Next() ([]int, bool)
}

// Iterator returns a cursor positioned at the first solution.
func (ix *Index) Iterator() Cursor { return ix.eng.IteratorFrom(make([]int, ix.k)) }

// IteratorFrom returns a cursor positioned at the smallest solution ≥ a.
func (ix *Index) IteratorFrom(a []int) Cursor { return ix.eng.IteratorFrom(a) }

// Arity returns the tuple width of the indexed query.
func (ix *Index) Arity() int { return ix.k }

// Stats exposes preprocessing and answering statistics. For a
// lowdeg-backed index the cover, dist and skip fields are zero (its
// locality builds none of them) and MaxDegree, BallEntries and CompEntries
// describe the ball structure; on a core-backed index it is the other way
// round. Everything else means the same for both.
func (ix *Index) Stats() core.Stats { return ix.eng.Stats() }

// Metrics returns the registry the index records into, or nil when the
// index was built without WithMetrics.
func (ix *Index) Metrics() *Metrics { return ix.eng.Obs() }

// Explain renders the index structure (clauses, starter lists, covers or
// balls) — the EXPLAIN output for the preprocessed query.
func (ix *Index) Explain() string { return ix.eng.Explain() }

// Plan renders the compiled decomposed normal form of the query without
// building an index.
func (q *Query) Plan() (string, error) {
	lq, err := q.compile()
	if err != nil {
		return "", err
	}
	return lq.String(), nil
}

// DistanceIndex answers dist(a,b) ≤ r queries in constant time after
// pseudo-linear preprocessing (Proposition 4.2).
type DistanceIndex struct {
	ix *dist.Index
}

// BuildDistanceIndex preprocesses g for distance queries up to radius r.
func BuildDistanceIndex(g *Graph, r int) *DistanceIndex {
	return &DistanceIndex{ix: dist.New(g, r, dist.Options{})}
}

// Within reports whether dist(a, b) ≤ rr, for any rr up to the index
// radius.
func (d *DistanceIndex) Within(a, b, rr int) bool { return d.ix.Within(a, b, rr) }

// Radius returns the maximum supported query radius.
func (d *DistanceIndex) Radius() int { return d.ix.Radius() }

// Map is the Storing-Theorem structure (Theorem 3.1): a k-ary partial map
// over [0,n)^k with constant-time lookup and successor search and O(n^ε)
// updates.
type Map = store.Store

// NewMap returns an empty Storing-Theorem map.
func NewMap(n, k int, epsilon float64) *Map { return store.New(n, k, epsilon) }

// DatabaseIndex is Theorem 2.3 lifted to relational databases via the
// adjacency-graph encoding of Lemma 2.2: the query is translated to the
// colored graph A′(D) and indexed there. Solutions are tuples of domain
// elements of the database.
type DatabaseIndex struct {
	ix *Index
}

// BuildDatabaseIndex translates and indexes a relational FO⁺ query (using
// relation atoms like "R(x,y)") over a database.
func BuildDatabaseIndex(db *Database, q *Query) (*DatabaseIndex, error) {
	enc := db.AdjacencyGraph()
	psi, err := enc.TranslateQuery(q.Phi, q.Vars)
	if err != nil {
		return nil, err
	}
	gq := &Query{Phi: psi, Vars: q.Vars}
	ix, err := Build(context.Background(), enc.Graph, gq)
	if err != nil {
		return nil, fmt.Errorf("repro: indexing translated query: %w", err)
	}
	return &DatabaseIndex{ix: ix}, nil
}

// Next, Test, Enumerate and Count mirror Index; all tuples are database
// domain elements (element vertices keep their ids in A′(D), and every
// non-element vertex fails the translated query's element guard).
func (d *DatabaseIndex) Next(tuple []int) ([]int, bool) { return d.ix.Next(tuple) }

// Test reports whether tuple is a solution over the database.
func (d *DatabaseIndex) Test(tuple []int) bool { return d.ix.Test(tuple) }

// Enumerate yields all solutions over the database in lexicographic order.
// (Element vertices occupy ids 0..n−1 of A′(D), so the element order and
// the graph order agree.)
func (d *DatabaseIndex) Enumerate(yield func([]int) bool) { d.ix.Enumerate(yield) }

// Count returns the number of solutions.
func (d *DatabaseIndex) Count() int { return d.ix.Count() }
