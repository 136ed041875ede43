package fo

import (
	"fmt"

	"repro/internal/graph"
)

// Evaluator evaluates FO⁺ formulas on a colored graph by direct recursion
// (∃/∀ loop over the whole domain, distance atoms run a truncated BFS).
// This is the semantics oracle: exponential in the quantifier rank, used by
// tests and by the naive baselines, never by the index structures.
//
// An Evaluator is not safe for concurrent use.
type Evaluator struct {
	g   *graph.Graph
	bfs *graph.BFS

	// distCache, when enabled, memoizes full BFS distance arrays per
	// source so that repeated distance atoms (typical inside quantifier
	// loops) cost O(1) after the first evaluation. Enable it only on
	// small graphs (induced neighborhoods): the cache can grow to
	// O(sources·n) integers.
	distCache map[graph.V][]int32

	// domainList, when non-nil, is the quantifier range (EvalOver).
	domainList []int32

	// stamp/epoch provide O(1) domainList membership for the witness
	// guards (allocated lazily on first EvalOver).
	stamp []int32
	epoch int32

	// distTester, when non-nil, answers distance atoms instead of BFS —
	// typically the constant-time index of Proposition 4.2.
	distTester DistTester
}

// UseDistTester makes distance atoms delegate to t (e.g. a dist.Index)
// instead of running truncated BFS.
func (e *Evaluator) UseDistTester(t DistTester) { e.distTester = t }

// Rebind makes the evaluator one for g with distance atoms answered by t
// (nil: by BFS), keeping its scratch; see graph.BFS.Rebind.
func (e *Evaluator) Rebind(g *graph.Graph, t DistTester) {
	e.g, e.distTester = g, t
	e.bfs.Rebind(g)
	if len(e.stamp) != g.N() {
		e.stamp = nil
	}
	if e.distCache != nil {
		clear(e.distCache)
	}
}

// NewEvaluator returns an evaluator for g.
func NewEvaluator(g *graph.Graph) *Evaluator {
	return &Evaluator{g: g, bfs: graph.NewBFS(g)}
}

// NewCachedEvaluator returns an evaluator with per-source distance
// caching, intended for the small induced neighborhoods the enumeration
// engine evaluates local formulas on.
func NewCachedEvaluator(g *graph.Graph) *Evaluator {
	return &Evaluator{g: g, bfs: graph.NewBFS(g), distCache: map[graph.V][]int32{}}
}

// distLeq answers dist(a,b) ≤ d, through the tester or cache when enabled.
func (e *Evaluator) distLeq(a, b graph.V, d int) bool {
	if e.distTester != nil {
		return e.distTester.Within(a, b, d)
	}
	if e.distCache == nil {
		return e.bfs.Distance(a, b, d) >= 0
	}
	da, ok := e.distCache[a]
	if !ok {
		if db, ok := e.distCache[b]; ok {
			return db[a] >= 0 && int(db[a]) <= d
		}
		da = make([]int32, e.g.N())
		for i := range da {
			da[i] = -1
		}
		for _, w := range e.bfs.Ball(a, e.g.N()) {
			da[w] = int32(e.bfs.Dist(int(w)))
		}
		e.distCache[a] = da
	}
	return da[b] >= 0 && int(da[b]) <= d
}

// Graph returns the graph the evaluator works on.
func (e *Evaluator) Graph() *graph.Graph { return e.g }

// Env is a partial assignment of variables to vertices.
type Env map[Var]graph.V

// EvalOver is Eval with quantifiers iterating only the listed vertices —
// the engine's path for a quantified component formula: the list is a ball
// as the BFS returns it (read, not kept), so a quantifier costs O(|domain|)
// instead of O(n).
func (e *Evaluator) EvalOver(f Formula, env Env, domain []int32) bool {
	if e.domainList != nil {
		panic("fo: nested EvalOver is not supported")
	}
	if e.stamp == nil {
		e.stamp = make([]int32, e.g.N())
	}
	e.epoch++
	for _, v := range domain {
		e.stamp[v] = e.epoch
	}
	e.domainList = domain
	res := e.Eval(f, env)
	e.domainList = nil
	return res
}

// inDomainList reports membership in the active EvalOver domain in O(1).
func (e *Evaluator) inDomainList(v graph.V) bool {
	return e.stamp[v] == e.epoch
}

// Eval reports whether G ⊨ f under the assignment env. All free variables
// of f must be assigned; otherwise Eval panics (a programming error).
func (e *Evaluator) Eval(f Formula, env Env) bool {
	switch f := f.(type) {
	case Truth:
		return f.Value
	case Edge:
		return e.g.HasEdge(e.lookup(f.X, env), e.lookup(f.Y, env))
	case HasColor:
		return e.g.HasColor(e.lookup(f.X, env), f.C)
	case Eq:
		return e.lookup(f.X, env) == e.lookup(f.Y, env)
	case DistLeq:
		return e.distLeq(e.lookup(f.X, env), e.lookup(f.Y, env), f.D)
	case Not:
		return !e.Eval(f.F, env)
	case And:
		for _, g := range f.Fs {
			if !e.Eval(g, env) {
				return false
			}
		}
		return true
	case Or:
		for _, g := range f.Fs {
			if e.Eval(g, env) {
				return true
			}
		}
		return false
	case Exists:
		old, had := env[f.V]
		res := false
		e.eachWitness(f.V, f.F, env, func(v graph.V) bool {
			env[f.V] = v
			if e.Eval(f.F, env) {
				res = true
				return false
			}
			return true
		})
		restore(env, f.V, old, had)
		return res
	case Forall:
		old, had := env[f.V]
		res := true
		e.eachDomainVertex(func(v graph.V) bool {
			env[f.V] = v
			if !e.Eval(f.F, env) {
				res = false
				return false
			}
			return true
		})
		restore(env, f.V, old, had)
		return res
	}
	panic(fmt.Sprintf("fo: unknown formula type %T", f))
}

// EvalAt reports whether G ⊨ f with every variable of f denoting v, for a
// quantifier-free f: a formula in one free variable read straight off the
// colours of v, with no environment and no search (x = x and dist(x,x) ≤ d
// hold, E(x,x) is a loop). It agrees with Eval under the assignment of v to
// that variable.
func EvalAt(g *graph.Graph, f Formula, v graph.V) bool {
	switch f := f.(type) {
	case Truth:
		return f.Value
	case Edge:
		return g.HasEdge(v, v)
	case HasColor:
		return g.HasColor(v, f.C)
	case Eq:
		return true
	case DistLeq:
		return f.D >= 0
	case Not:
		return !EvalAt(g, f.F, v)
	case And:
		for _, h := range f.Fs {
			if !EvalAt(g, h, v) {
				return false
			}
		}
		return true
	case Or:
		for _, h := range f.Fs {
			if EvalAt(g, h, v) {
				return true
			}
		}
		return false
	}
	panic(fmt.Sprintf("fo: EvalAt on %T, which is not quantifier-free", f))
}

// EvalTuple evaluates f with the free variables vars bound to the tuple a
// (positionally).
func (e *Evaluator) EvalTuple(f Formula, vars []Var, a []graph.V) bool {
	if len(vars) != len(a) {
		panic(fmt.Sprintf("fo: %d variables but %d values", len(vars), len(a)))
	}
	env := make(Env, len(vars))
	for i, v := range vars {
		env[v] = a[i]
	}
	return e.Eval(f, env)
}

func (e *Evaluator) lookup(v Var, env Env) graph.V {
	x, ok := env[v]
	if !ok {
		panic(fmt.Sprintf("fo: unbound variable %s", v))
	}
	return x
}

// eachWitness iterates candidate witnesses for ∃v body: when a top-level
// conjunct of the body is an edge atom E(v, w) (or an equality) whose other
// side is already bound, only the neighbors of that vertex (or the single
// equal vertex) can satisfy the body, so the loop shrinks from the whole
// domain to a degree-sized set. Purely an iteration-order optimization —
// every candidate is still checked against the full body.
func (e *Evaluator) eachWitness(v Var, body Formula, env Env, yield func(graph.V) bool) {
	conjuncts := []Formula{body}
	if and, ok := body.(And); ok {
		conjuncts = and.Fs
	}
	inRange := func(x graph.V) bool {
		return e.domainList == nil || e.inDomainList(x)
	}
	for _, c := range conjuncts {
		switch c := c.(type) {
		case Eq:
			var other Var
			switch {
			case c.X == v && c.Y != v:
				other = c.Y
			case c.Y == v && c.X != v:
				other = c.X
			default:
				continue
			}
			if w, ok := env[other]; ok {
				if inRange(w) {
					yield(w)
				}
				return
			}
		case Edge:
			var other Var
			switch {
			case c.X == v && c.Y != v:
				other = c.Y
			case c.Y == v && c.X != v:
				other = c.X
			default:
				continue
			}
			if w, ok := env[other]; ok {
				for _, u := range e.g.Neighbors(w) {
					if !inRange(int(u)) {
						continue
					}
					if !yield(int(u)) {
						return
					}
				}
				return
			}
		}
	}
	e.eachDomainVertex(yield)
}

// eachDomainVertex iterates the quantifier range (domainList, or all
// vertices); yield returning false stops the iteration.
func (e *Evaluator) eachDomainVertex(yield func(graph.V) bool) {
	if e.domainList != nil {
		for _, v := range e.domainList {
			if !yield(int(v)) {
				return
			}
		}
		return
	}
	for v := 0; v < e.g.N(); v++ {
		if !yield(v) {
			return
		}
	}
}

func restore(env Env, v Var, old graph.V, had bool) {
	if had {
		env[v] = old
	} else {
		delete(env, v)
	}
}
