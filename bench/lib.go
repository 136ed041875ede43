package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro"
)

// libTarget drives the facade in-process: repro.Build, Index methods,
// snapshots through Save/LoadIndexSnapshot.
type libTarget struct {
	w     workloadSpec
	q     *repro.Query
	g     [2]*repro.Graph
	ix    [2]*repro.Index
	snaps *snapStore
	zero  []int
}

func newLibTarget(w workloadSpec, g [2]*repro.Graph, snaps *snapStore) (*libTarget, error) {
	q, err := repro.ParseQuery(w.Query.Src, w.Query.Vars...)
	if err != nil {
		return nil, err
	}
	return &libTarget{w: w, q: q, g: g, snaps: snaps, zero: make([]int, len(w.Query.Vars))}, nil
}

func (t *libTarget) build(sz size) (*repro.Index, error) {
	return repro.Build(context.Background(), t.g[sz], t.q, repro.WithEngine(t.w.Engine))
}

// firstAnswers pulls the first 100 answers, which is what "first answer"
// means throughout: a build is not done until it has answered.
func firstAnswers(ix *repro.Index, st *stream) {
	it := ix.Iterator()
	var page []int
	n := 0
	for ; n < firstPage; n++ {
		sol, ok := it.Next()
		if !ok {
			break
		}
		page = append(page, sol...)
	}
	if st != nil {
		st.accept(page, ix.Arity(), n, !it.HasNext())
	}
}

func (t *libTarget) evict() error {
	t.ix = [2]*repro.Index{}
	return nil
}

func (t *libTarget) cold(sz size) (time.Duration, error) {
	t.ix[sz] = nil
	start := time.Now()
	ix, err := t.build(sz)
	if err != nil {
		return 0, err
	}
	firstAnswers(ix, nil)
	d := time.Since(start)
	t.ix[sz] = ix
	return d, nil
}

func (t *libTarget) snapPath(sz size) string {
	return filepath.Join(t.snaps.dir, fmt.Sprintf("lib-%d.fodsnap", sz))
}

// restore loads the index of graph sz from its snapshot and pulls the first
// answers. The loaded index is dropped again: the target keeps answering
// from the one it built.
func (t *libTarget) restore(sz size) (time.Duration, error) {
	state := &t.snaps.lib[sz]
	if *state == 0 {
		if err := os.MkdirAll(t.snaps.dir, 0o755); err != nil {
			return 0, err
		}
		if err := repro.SaveIndexSnapshot(t.ix[sz], t.snapPath(sz)); err != nil {
			// The low-degree engine has no snapshot form. What a restart
			// costs with it is a rebuild, so that is what restore measures.
			if t.ix[sz].Engine() != repro.EngineLowDeg {
				return 0, err
			}
			*state = 2
		} else {
			*state = 1
		}
	}
	if *state == 2 {
		return t.cold(sz)
	}
	start := time.Now()
	ix, err := repro.LoadIndexSnapshot(t.snapPath(sz))
	if err != nil {
		return 0, err
	}
	firstAnswers(ix, nil)
	return time.Since(start), nil
}

func (t *libTarget) warm() error {
	for sz := large; sz <= small; sz++ {
		if t.ix[sz] == nil {
			if _, err := t.cold(sz); err != nil {
				return err
			}
		}
	}
	return nil
}

// scan is the library analogue of one /v1/enumerate request: resume after
// the cursor tuple with IteratorFrom, then limit calls of Next. The hash
// and the sparse sample run inside the clock; they cost about 2 ns an
// answer.
func (t *libTarget) scan(st *stream, limit int) (time.Duration, error) {
	ix := t.ix[st.sz]
	start := time.Now()
	from := t.zero
	if st.last != nil {
		from = st.last
	}
	it := ix.IteratorFrom(from)
	h, n, got := st.hash, st.n, 0
	var sol []int
	for got < limit {
		s, ok := it.Next()
		if !ok {
			break
		}
		if got == 0 && st.last != nil && !lexLess(st.last, s) {
			continue // the cursor tuple itself was already delivered
		}
		sol = s
		h = mix(h, s)
		n++
		got++
		if n%sampleEvery == 1 {
			st.keep(s)
		}
	}
	if got > 0 {
		st.last = append(st.last[:0], sol...)
	}
	st.done = !it.HasNext()
	d := time.Since(start)
	st.hash, st.n = h, n
	return d, nil
}

func (t *libTarget) test(tuples [][]int, res []bool) (time.Duration, error) {
	ix := t.ix[large]
	start := time.Now()
	for i, tu := range tuples {
		res[i] = ix.Test(tu)
	}
	return time.Since(start), nil
}

func (t *libTarget) next(tuples [][]int, res [][]int) (time.Duration, error) {
	ix := t.ix[large]
	start := time.Now()
	for i, tu := range tuples {
		sol, ok := ix.Next(tu)
		if !ok {
			sol = nil
		}
		res[i] = sol
	}
	return time.Since(start), nil
}

func (t *libTarget) update(edits []repro.Edit, st *stream) (time.Duration, error) {
	*st = *newStream(large)
	start := time.Now()
	ix, err := t.ix[large].ApplyEdits(context.Background(), edits)
	if err != nil {
		return 0, err
	}
	firstAnswers(ix, st)
	d := time.Since(start)
	t.ix[large], t.g[large] = ix, ix.Graph()
	return d, nil
}

func (t *libTarget) graph(sz size) *repro.Graph { return t.g[sz] }

func (t *libTarget) close() {}
