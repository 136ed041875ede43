package main

import (
	"time"

	"repro"
)

// size selects one of the two graphs a workload holds.
type size int

const (
	large size = iota
	small
)

// firstPage is the page size of a cold start: "the first 100 answers".
const firstPage = 100

// scanPage is the page size of a scan, the largest the server allows.
const scanPage = 10000

// target is the system under one workload, seen the way its user sees it:
// over loopback HTTP (servedTarget) or on the facade in-process
// (libTarget). The workload skeleton in run.go drives either through
// these methods, so every end-to-end metric has one definition for both.
//
// Each method returns the time on the clock. The clock covers what the
// user waits for: for HTTP, from sending the request to the last byte of
// the body. Decoding and checking happen after the clock stops and are
// charged to the checker.
type target interface {
	// evict makes both indexes non-resident, off the clock, so that what
	// they held is garbage before the next build begins.
	evict() error
	// cold fetches the first 100 answers of graph sz through the build
	// tier. The index must not be resident: the system is new, or evict
	// came first.
	cold(sz size) (time.Duration, error)
	// restore fetches the first 100 answers of graph sz through the
	// snapshot tier, beside the resident index and without replacing it.
	// An engine that refuses snapshots falls back to a build, as the
	// server's disk tier does.
	restore(sz size) (time.Duration, error)
	// warm makes both indexes resident again (evict and cold drop them).
	warm() error
	// scan fetches the next page of st's stream, at most limit answers.
	scan(st *stream, limit int) (time.Duration, error)
	// test asks whether each tuple is an answer on the large graph,
	// writing into res, and returns the time of the whole batch.
	test(tuples [][]int, res []bool) (time.Duration, error)
	// next asks for the smallest answer at or after each tuple on the
	// large graph; res[i] is nil when there is none.
	next(tuples [][]int, res [][]int) (time.Duration, error)
	// update publishes the edits on the large graph and fetches the first
	// 100 answers at the new head into st, which it resets.
	update(edits []repro.Edit, st *stream) (time.Duration, error)
	// graph returns the current head of graph sz.
	graph(sz size) *repro.Graph
	close()
}

// stream is one client's position in an enumeration plus what the checker
// needs from it: a running hash of every tuple received since the start of
// the stream (compared with Index.Enumerate of an independently built
// index afterwards), a sample of tuples for the distance oracle, and the
// count of ordering violations seen so far.
type stream struct {
	sz     size
	last   []int  // last tuple received; nil before the first page
	token  string // served: the opaque next_cursor
	done   bool   // the last page exhausted the stream
	n      int    // tuples received since the stream began
	hash   uint64 // running hash over those tuples
	bad    int    // pages that broke order, count or cursor rules
	sample [][]int

	// first pass only: once a stream has wrapped around, hash and n stay
	// frozen at the values of the first full pass.
	frozen    bool
	frozenN   int
	frozenSum uint64
}

const (
	hashSeed  = 1469598103934665603
	hashPrime = 1099511628211
	// sampleEvery thins the tuples kept for the distance oracle.
	sampleEvery = 1021
	maxSample   = 600
)

func newStream(sz size) *stream { return &stream{sz: sz, hash: hashSeed} }

// freeze fixes the prefix the stream check compares at what has been
// received so far; later calls change nothing.
func (st *stream) freeze() {
	if !st.frozen {
		st.frozen, st.frozenN, st.frozenSum = true, st.n, st.hash
	}
}

// restart puts the stream back at the first answer. The first completed
// pass is what the stream check compares.
func (st *stream) restart() {
	st.freeze()
	st.last, st.token, st.done = nil, "", false
	st.n, st.hash = 0, hashSeed
}

// checked returns the length and hash of the stream prefix to compare.
func (st *stream) checked() (int, uint64) {
	if st.frozen {
		return st.frozenN, st.frozenSum
	}
	return st.n, st.hash
}

// mix folds one tuple into a running hash. It is cheap enough (about a
// nanosecond a component) to run inside the clock of an in-process scan.
func mix(h uint64, t []int) uint64 {
	for _, v := range t {
		h = (h ^ uint64(v)) * hashPrime
	}
	return h
}

func lexLess(a, b []int) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// keep adds a copy of t to the oracle sample while there is room.
func (st *stream) keep(t []int) {
	if len(st.sample) < maxSample {
		st.sample = append(st.sample, append([]int(nil), t...))
	}
}

// accept checks one decoded page against the paging contract — strictly
// increasing tuples, the first one beyond the cursor tuple, count equal to
// the number of solutions — and folds it into the stream. flat holds the
// page's tuples one after another, k components each.
func (st *stream) accept(flat []int, k, count int, done bool) {
	ok := len(flat)%k == 0 && count == len(flat)/k
	prev := st.last
	for i := 0; i+k <= len(flat); i += k {
		t := flat[i : i+k]
		if prev != nil && !lexLess(prev, t) {
			ok = false
		}
		prev = t
		st.hash = mix(st.hash, t)
		st.n++
		if st.n%sampleEvery == 1 {
			st.keep(t)
		}
	}
	if !ok {
		st.bad++
	}
	if prev != nil {
		st.last = append(st.last[:0], prev...)
	}
	st.done = done
}
