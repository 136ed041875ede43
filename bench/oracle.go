package main

import (
	"context"
	"math/rand"
	"sort"
	"sync"

	"repro"
)

// oracle checks what the system answered. It has three independent
// sources of truth: the query's meaning written out over breadth-first
// distances and colour lookups (querySpec.holds), an index built
// separately from the one under measurement, and the paging contract
// (stream.accept). Everything it does is off the clock.
type oracle struct {
	w  workloadSpec
	g  *repro.Graph // the graph the large index currently answers over
	gs *repro.Graph // the small graph, never written to
	ix *repro.Index // independently built index over g
	d  distFunc

	mu        sync.Mutex // point-served notes results from two clients
	tests     []testNote
	nexts     []nextNote
	attempted int
	failed    int
}

type testNote struct {
	tuple []int
	got   bool
}

type nextNote struct {
	tuple, got []int
}

// maxNotes bounds how many probe results are kept for checking.
const maxNotes = 4000

// newOracle builds the oracle, and its index through the facade, over
// graphs generated apart from the ones the system is given.
func newOracle(w workloadSpec, g [2]*repro.Graph) (*oracle, error) {
	q, err := repro.ParseQuery(w.Query.Src, w.Query.Vars...)
	if err != nil {
		return nil, err
	}
	ix, err := repro.Build(context.Background(), g[large], q, repro.WithEngine(w.Engine))
	if err != nil {
		return nil, err
	}
	return &oracle{w: w, g: g[large], gs: g[small], ix: ix, d: bfsDistance(g[large])}, nil
}

// probes draws n probe tuples: half uniformly at random (mostly misses for
// a selective query), half the answer the independent index finds at or
// after a random tuple (hits).
func (o *oracle) probes(rng *rand.Rand, n int) [][]int {
	k, nv := len(o.w.Query.Vars), o.g.N()
	out := make([][]int, n)
	for i := range out {
		t := make([]int, k)
		for j := range t {
			t[j] = rng.Intn(nv)
		}
		if i%2 == 1 {
			if sol, ok := o.ix.Next(t); ok {
				copy(t, sol)
			}
		}
		out[i] = t
	}
	return out
}

func (o *oracle) noteTest(t []int, got bool) {
	o.mu.Lock()
	if len(o.tests) < maxNotes {
		o.tests = append(o.tests, testNote{t, got})
	}
	o.mu.Unlock()
}

func (o *oracle) noteNext(t, got []int) {
	o.mu.Lock()
	if len(o.nexts) < maxNotes {
		o.nexts = append(o.nexts, nextNote{t, append([]int(nil), got...)})
	}
	o.mu.Unlock()
}

// noteCount checks a /v1/count reply against the independent index, which
// caches its count after the first call.
func (o *oracle) noteCount(got int) {
	want, _ := o.ix.SolutionCount()
	o.mu.Lock()
	o.verdict(got == want)
	o.mu.Unlock()
}

func (o *oracle) verdict(ok bool) {
	o.attempted++
	if !ok {
		o.failed++
	}
}

// checkNotes settles the probe results: every Test result against the
// query's meaning, every Next result against the independent index and
// the meaning.
func (o *oracle) checkNotes() {
	for _, n := range o.tests {
		o.verdict(n.got == o.w.Query.holds(o.g, o.d, n.tuple))
	}
	for _, n := range o.nexts {
		want, ok := o.ix.Next(n.tuple)
		switch {
		case !ok:
			o.verdict(len(n.got) == 0)
		case len(n.got) == 0:
			o.verdict(false)
		default:
			o.verdict(!lexLess(n.got, want) && !lexLess(want, n.got) && o.w.Query.holds(o.g, o.d, n.got))
		}
	}
	o.tests, o.nexts = nil, nil
}

// checkStreams compares the prefix of each stream over the large graph, by
// length and hash, with the same prefix of the independent index's
// enumeration — one pass of Index.Enumerate serves them all, since every
// stream begins at the first answer — and checks the streams' sampled tuples
// against the query's meaning. Streams over the small graph have no
// independent index; their samples are checked on a distance oracle of
// their own.
func (o *oracle) checkStreams(streams []*stream) {
	var prefixes []*stream // over the large graph, by the length of the prefix to compare
	ds := bfsDistance(o.gs)
	for _, st := range streams {
		if st == nil {
			continue
		}
		o.verdict(st.bad == 0)
		g, d := o.g, o.d
		if st.sz != large {
			g, d = o.gs, ds
		} else {
			prefixes = append(prefixes, st)
		}
		for _, t := range st.sample {
			o.verdict(o.w.Query.holds(g, d, t))
		}
	}
	sort.Slice(prefixes, func(i, j int) bool {
		ni, _ := prefixes[i].checked()
		nj, _ := prefixes[j].checked()
		return ni < nj
	})
	h, got, next := uint64(hashSeed), 0, 0
	settle := func() { // every prefix that ends at the got answers seen so far
		for ; next < len(prefixes); next++ {
			n, sum := prefixes[next].checked()
			if n > got {
				return
			}
			o.verdict(h == sum)
		}
	}
	settle()
	o.ix.Enumerate(func(t []int) bool {
		if next == len(prefixes) {
			return false
		}
		h = mix(h, t)
		got++
		settle()
		return true
	})
	for ; next < len(prefixes); next++ {
		o.verdict(false) // the stream is longer than the enumeration
	}
}

// checkPages checks the pages a write cycle read at the new head g: the
// paging contract always, and with deep also every tuple of the stream's
// sample against the query's meaning over g.
func (o *oracle) checkPages(g *repro.Graph, st *stream, deep bool) {
	o.verdict(st.bad == 0 && st.n > 0)
	if !deep {
		return
	}
	d := bfsDistance(g)
	for _, t := range st.sample {
		o.verdict(o.w.Query.holds(g, d, t))
	}
	if st.last != nil {
		o.verdict(o.w.Query.holds(g, d, st.last))
	}
}

// editor draws the write sequence: each batch recolours one vertex and
// toggles one edge of the graph as generated, so every batch changes the
// graph and the graph stays inside its class.
type editor struct {
	rng  *rand.Rand
	base *repro.Graph
}

func newEditor(rng *rand.Rand, base *repro.Graph) *editor { return &editor{rng: rng, base: base} }

func (e *editor) next(head *repro.Graph) []repro.Edit {
	v := e.rng.Intn(head.N())
	colour := repro.AddColor(v, 0)
	if head.HasColor(v, 0) {
		colour = repro.RemoveColor(v, 0)
	}
	u := e.rng.Intn(head.N())
	for e.base.Degree(u) == 0 {
		u = e.rng.Intn(head.N())
	}
	nb := e.base.Neighbors(u)
	x := int(nb[e.rng.Intn(len(nb))])
	edge := repro.AddEdge(u, x)
	if head.HasEdge(u, x) {
		edge = repro.RemoveEdge(u, x)
	}
	return []repro.Edit{colour, edge}
}
