package main

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"repro"
)

// runConfig is one invocation.
type runConfig struct {
	w       workloadSpec
	seed    int64
	seconds float64 // how long the rounds of the run go on
	outDir  string
	smoke   bool // tiny graphs, for bench_test.go
}

// A run is a sequence of rounds. Each round sets the system up afresh and
// then runs every phase once, so that the samples behind each metric are
// spread over the whole run: the sandbox slows a process down for seconds at
// a time, and a metric measured in one short window of its own reads that
// window's weather (README.md has the measurements). Rounds go on until
// --seconds have passed; there are at least minRounds.
//
// The phases of a round are timed: each gets its share of roundTimed. Every
// workload runs every phase, because every workload reports every metric;
// what differs is the main window's traffic.
const (
	roundTimed = time.Second
	minRounds  = 3

	mainShare    = 0.26
	probeShare   = 0.10 // each of the test probes and the next probes, a third of it in every leg
	driftShare   = 0.16 // pages of the large and the small graph in turn
	pageShare    = 0.08 // warm pages of 100 answers
	restoreShare = 0.10
	updateShare  = 0.12

	driftPage    = 2500   // answers of a page of the drift phase: hundreds of pairs a run, each mostly delay
	allocPages   = 40     // pages of a scan over which allocs_per_op is taken
	warmPages    = 4      // pages of the warm-up pass before a timed scan
	pagesPerCold = 10     // warm pages read after each cold start of cold-start
	pagesPerEdit = 10     // cursor pages read after each write of mutate-mix
	checkCap     = 200000 // answers of a stream that the stream check replays

	// sliceMin is the on-the-clock time of one slice. The sandbox stalls
	// a busy process for a few milliseconds every few milliseconds, so only
	// units about this short are undisturbed often enough for their fast
	// decile to be the undisturbed rate.
	sliceMin = time.Millisecond
)

// window is what a main window or an auxiliary scan measured.
type window struct {
	ops     int             // requests
	answers int             // answers received
	lat     []time.Duration // per-request latency of the reads
	rates   []float64       // answers per second of each slice
	cpuOp   []float64       // process CPU nanoseconds per request of each slice
	updLat  []time.Duration // mutate-mix: write to first page at the new head
	use     usage           // counters consumed over the window, or over its first useOps requests
	useOps  int
}

// slicer cuts a closed loop into slices of at least sliceMin on the clock
// and keeps each slice's answer rate and CPU time per request. clients is
// the number of loops running beside each other: their rates add up, and
// the process's CPU time is shared among them.
type slicer struct {
	clients int
	busy    time.Duration
	answers int
	ops     int
	cpu0    time.Duration
	rates   []float64
	cpuOp   []float64
}

func newSlicer(clients int) *slicer { return &slicer{clients: clients, cpu0: cpuTime()} }

func (s *slicer) add(ops, answers int, d time.Duration) {
	s.ops += ops
	s.answers += answers
	s.busy += d
	if s.busy < sliceMin {
		return
	}
	cpu := cpuTime()
	s.rates = append(s.rates, float64(s.clients*s.answers)/s.busy.Seconds())
	s.cpuOp = append(s.cpuOp, float64((cpu-s.cpu0).Nanoseconds())/float64(s.clients*s.ops))
	s.ops, s.answers, s.busy, s.cpu0 = 0, 0, 0, cpu
}

// samples is what the rounds of a run collect, pooled.
type samples struct {
	setupS   []float64
	cold     [2][]time.Duration // first answers through the build tier, per size
	exponent []float64          // one per small and large build made one after the other
	rest     []time.Duration    // first answers through the snapshot tier, large graph
	testNS   []float64          // time per random Test of each batch
	nextNS   []float64          // time per random Next of each batch
	drift    []float64
	pageLat  []time.Duration
	upd      []time.Duration
	main     window    // ops, answers, lat, rates, cpuOp of the main windows
	allocsOp []float64 // one per round
	bytesOp  []float64
	check    []*stream // streams read at version 0, for the stream check
}

// run is the state of one workload run.
type run struct {
	cfg    runConfig
	rng    *rand.Rand
	tgt    target
	g0     [2]*repro.Graph // the graphs as generated, version 0
	snaps  *snapStore
	oracle *oracle
	rec    *recorder // nil unless traced
	samples

	heapIndex float64

	phases    map[string]float64 // wall seconds of each phase, for the envelope
	phaseFrom time.Time
}

func newRun(cfg runConfig) *run {
	dir := filepath.Join(cfg.outDir, fmt.Sprintf("snap-%s-%d", cfg.w.Name, cfg.seed))
	return &run{
		cfg: cfg, rng: rand.New(rand.NewSource(cfg.seed)), snaps: &snapStore{dir: dir},
		phases: map[string]float64{}, phaseFrom: time.Now(),
	}
}

func (r *run) close() {
	if r.tgt != nil {
		r.tgt.close()
	}
	r.snaps.close()
}

// phase closes the phase that began at the previous call (or at the start
// of the run) under the given name.
func (r *run) phase(name string) {
	now := time.Now()
	r.phases[name] += now.Sub(r.phaseFrom).Seconds()
	r.phaseFrom = now
}

// span is a phase's share of a round's timed time.
func (r *run) span(share float64) time.Duration {
	d := roundTimed
	if r.cfg.smoke {
		d /= 10
	}
	return time.Duration(share * float64(d))
}

func (r *run) generate() [2]*repro.Graph {
	nl, ns := r.cfg.w.NLarge, r.cfg.w.NSmall
	if r.cfg.smoke {
		nl, ns = 900, 225
	}
	opt := repro.GenOptions{Seed: r.cfg.seed, Colors: 2, Degree: 4}
	return [2]*repro.Graph{
		repro.Generate(r.cfg.w.Class, nl, opt),
		repro.Generate(r.cfg.w.Class, ns, opt),
	}
}

func (r *run) newTarget(g [2]*repro.Graph) (target, error) {
	if r.cfg.w.Served {
		return newServedTarget(r.cfg.w, g, r.snaps), nil
	}
	return newLibTarget(r.cfg.w, g, r.snaps)
}

// setUp performs one whole set-up — generate both graphs, start the
// system, obtain both indexes and their first answers — and leaves the
// target in r.tgt, closing the one before. With measureHeap it also reads
// the live heap before and after the large index exists, with the clock
// stopped.
func (r *run) setUp(measureHeap bool) error {
	if r.tgt != nil {
		r.tgt.close()
		r.tgt = nil
	}
	runtime.GC()
	start := time.Now()
	var paused time.Duration
	g := r.generate()
	tgt, err := r.newTarget(g)
	if err != nil {
		return err
	}
	r.tgt, r.g0 = tgt, g
	// The small index first: it is built on the heap the collection above
	// left, as every small index of the run is, and not in the wake of the
	// large one's garbage.
	ds, err := r.coldStart(small)
	if err != nil {
		return err
	}
	var before float64
	if measureHeap {
		p0 := time.Now()
		before = liveHeapMB()
		paused += time.Since(p0)
	}
	dl, err := r.coldStart(large)
	if err != nil {
		return err
	}
	if measureHeap {
		p0 := time.Now()
		r.heapIndex = liveHeapMB() - before
		paused += time.Since(p0)
	}
	if err := tgt.warm(); err != nil {
		return err
	}
	r.setupS = append(r.setupS, (time.Since(start) - paused).Seconds())
	r.cold[large] = append(r.cold[large], dl)
	r.cold[small] = append(r.cold[small], ds)
	// The two builds are a second apart at most, so a slow stretch of the
	// sandbox slows both and leaves their ratio alone.
	r.exponent = append(r.exponent, buildExponent(ds.Seconds(), dl.Seconds(), g[small].N(), g[large].N()))
	runtime.GC() // the builds' garbage, which would otherwise be collected inside the window that follows
	return nil
}

// repeat calls op until d has passed and it has run at least atLeast
// times, collecting the times op returns.
func repeat(d time.Duration, atLeast int, op func() (time.Duration, error)) ([]time.Duration, error) {
	var out []time.Duration
	deadline := time.Now().Add(d)
	for len(out) < atLeast || time.Now().Before(deadline) {
		lat, err := op()
		if err != nil {
			return nil, err
		}
		out = append(out, lat)
	}
	return out, nil
}

// warmUp is the one warm-up pass before a timed scan: a full pass over the
// answers of graph sz or warmPages pages of them, whichever ends first, on
// a stream of its own.
func (r *run) warmUp(sz size, limit int) error {
	for wu, p := newStream(sz), 0; p < warmPages && !wu.done; p++ {
		if _, err := r.tgt.scan(wu, limit); err != nil {
			return err
		}
	}
	return nil
}

// scanWindow pages through st's graph for d, limit answers a request, and
// returns what it measured. A page cut short by the end of the stream
// counts for the rate but not for the latency, unless the whole stream is
// shorter than a page.
func (r *run) scanWindow(st *stream, d time.Duration, limit int) (*window, error) {
	w := &window{}
	if err := r.warmUp(st.sz, limit); err != nil {
		return nil, err
	}
	u0 := readUsage()
	sl := newSlicer(1)
	var short []time.Duration
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if st.done {
			st.restart()
		}
		before, t0 := st.n, time.Now()
		lat, err := r.tgt.scan(st, limit)
		if err != nil {
			return nil, err
		}
		r.rec.request("scan", t0, lat)
		got := st.n - before
		w.ops++
		w.answers += got
		if got == limit {
			w.lat = append(w.lat, lat)
		} else {
			short = append(short, lat)
		}
		sl.add(1, got, lat)
		if st.n >= checkCap {
			st.freeze()
		}
		if w.ops == allocPages {
			// An engine fills its lazy caches as a scan advances, so what a
			// request allocates depends on how far the window got; a fixed
			// number of pages allocates the same every run.
			w.use, w.useOps = readUsage().sub(u0), w.ops
		}
	}
	if w.useOps == 0 {
		w.use, w.useOps = readUsage().sub(u0), w.ops
	}
	w.rates, w.cpuOp = sl.rates, sl.cpuOp
	if len(w.lat) == 0 {
		w.lat = short
	}
	return w, nil
}

// driftWindow measures how the delay drifts with n: for d it fetches a page
// of the large graph and a page of the small one in turn, and returns the
// ratio of their times per answer, one ratio per pair. The two pages of a
// pair are milliseconds apart, so a slow stretch of the sandbox slows both
// and cancels; a stall hits one of them and is an outlier the median drops.
func (r *run) driftWindow(d time.Duration) ([]float64, [2]*stream, error) {
	st := [2]*stream{newStream(large), newStream(small)}
	for _, s := range st {
		if err := r.warmUp(s.sz, driftPage); err != nil {
			return nil, st, err
		}
	}
	var ratios []float64
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		var perAnswer [2]float64
		for sz, s := range st {
			if s.done {
				s.restart()
			}
			before, t0 := s.n, time.Now()
			lat, err := r.tgt.scan(s, driftPage)
			if err != nil {
				return nil, st, err
			}
			r.rec.request("scan", t0, lat)
			perAnswer[sz] = float64(lat.Nanoseconds()) / float64(max(s.n-before, 1))
			if s.n >= checkCap {
				s.freeze()
			}
		}
		ratios = append(ratios, perAnswer[large]/perAnswer[small])
	}
	return ratios, st, nil
}

// pointKinds is the fixed request mix of point-served, ten requests long:
// 40 % enumerate limit=1 following the cursor, 30 % test, 20 % next,
// 10 % count.
var pointKinds = [10]byte{'e', 't', 'n', 'e', 't', 'e', 'c', 'n', 't', 'e'}

var pointNames = map[byte]string{'e': "enumerate1", 't': "test", 'n': "next", 'c': "count"}

// pointWindow runs two closed-loop clients for d.
func (r *run) pointWindow(d time.Duration) (*window, []*stream, error) {
	t := r.tgt.(*servedTarget)
	const clients = 2
	type result struct {
		lat []time.Duration
		n   int // answers
		sl  *slicer
		st  *stream
		cl  *client
		err error
	}
	res := make([]*result, clients)
	probes := r.oracle.probes(r.rng, 4096)
	u0 := readUsage()
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		out := &result{st: newStream(large), cl: newClient(t.main.ts.URL), sl: newSlicer(clients)}
		res[c] = out
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c * 3; time.Now().Before(deadline); i++ {
				tu := probes[i%len(probes)]
				var lat time.Duration
				var err error
				got, t0, kind := 0, time.Now(), pointKinds[i%len(pointKinds)]
				switch kind {
				case 'e':
					if out.st.done {
						out.st.restart()
					}
					before := out.st.n
					lat, err = t.scanOn(out.cl, out.st, 1)
					got = out.st.n - before
				case 't':
					var ok bool
					ok, lat, err = t.testOn(out.cl, tu)
					r.oracle.noteTest(tu, ok)
				case 'n':
					var sol []int
					sol, lat, err = t.nextOn(out.cl, tu)
					r.oracle.noteNext(tu, sol)
					if sol != nil {
						got = 1
					}
				case 'c':
					var n int
					n, lat, err = t.countOn(out.cl)
					r.oracle.noteCount(n)
				}
				if err != nil {
					out.err = err
					return
				}
				r.rec.request(pointNames[kind], t0, lat)
				out.lat = append(out.lat, lat)
				out.n += got
				out.sl.add(1, got, lat)
			}
		}(c)
	}
	wg.Wait()
	w := &window{use: readUsage().sub(u0)}
	var streams []*stream
	for _, out := range res {
		out.cl.close()
		if out.err != nil {
			return nil, nil, out.err
		}
		t.cl.verify += out.cl.verify
		t.cl.reqs += out.cl.reqs
		w.ops += len(out.lat)
		w.answers += out.n
		w.lat = append(w.lat, out.lat...)
		w.rates = append(w.rates, out.sl.rates...)
		w.cpuOp = append(w.cpuOp, out.sl.cpuOp...)
		streams = append(streams, out.st)
	}
	w.useOps = w.ops
	return w, streams, nil
}

// coldWindow is cold-start's main window: for d and at least rounds times,
// cold starts through the build tier and the snapshot tier on both sizes,
// a few warm pages after each. One round of the four is one slice.
func (r *run) coldWindow(d time.Duration, rounds int) (*window, *stream, error) {
	w := &window{}
	var st *stream
	runtime.GC()
	u0 := readUsage()
	sl := newSlicer(1)
	deadline := time.Now().Add(d)
	for round := 0; round < rounds || time.Now().Before(deadline); round++ {
		var busy time.Duration
		answers, ops := 0, 0
		for step := 0; step < 4; step++ {
			sz := size(step % 2)
			var lat time.Duration
			var err error
			if step < 2 {
				if err := r.tgt.evict(); err != nil {
					return nil, nil, err
				}
			}
			runtime.GC()
			t0 := time.Now()
			if step < 2 {
				lat, err = r.coldStart(sz)
				r.cold[sz] = append(r.cold[sz], lat)
				r.rec.request("cold", t0, lat)
			} else {
				lat, err = parked(func() (time.Duration, error) { return r.tgt.restore(sz) })
				if sz == large {
					r.rest = append(r.rest, lat)
				}
				r.rec.request("restore", t0, lat)
			}
			if err != nil {
				return nil, nil, err
			}
			ops++
			answers += firstPage
			busy += lat
			if step >= 2 {
				continue // the snapshot host is read by its cold starts only
			}
			st = newStream(sz)
			for p := 0; p < pagesPerCold; p++ {
				before, t0 := st.n, time.Now()
				lat, err := r.tgt.scan(st, firstPage)
				if err != nil {
					return nil, nil, err
				}
				r.rec.request("page", t0, lat)
				w.lat = append(w.lat, lat)
				ops++
				answers += st.n - before
				busy += lat
			}
		}
		sl.add(ops, answers, busy)
		w.ops += ops
		w.answers += answers
	}
	w.use, w.useOps = readUsage().sub(u0), w.ops
	w.rates, w.cpuOp = sl.rates, sl.cpuOp
	return w, st, r.tgt.warm()
}

// mutateWindow runs write cycles for d, or exactly cycles of them when
// cycles is positive: one write, the first page at the new head, then
// cursor pages pinned to that version. One cycle is one slice.
func (r *run) mutateWindow(d time.Duration, cycles int, ed *editor) (*window, error) {
	w := &window{}
	st := newStream(large)
	u0 := readUsage()
	sl := newSlicer(1)
	deadline := time.Now().Add(d)
	for cycle := 0; cycle < cycles || (cycles <= 0 && time.Now().Before(deadline)); cycle++ {
		t0 := time.Now()
		lat, err := r.tgt.update(ed.next(r.tgt.graph(large)), st)
		if err != nil {
			return nil, err
		}
		r.rec.request("update", t0, lat)
		w.updLat = append(w.updLat, lat)
		ops, busy := 2, lat
		for p := 0; p < pagesPerEdit && !st.done; p++ {
			t0 := time.Now()
			lat, err := r.tgt.scan(st, firstPage)
			if err != nil {
				return nil, err
			}
			r.rec.request("page", t0, lat)
			w.lat = append(w.lat, lat)
			ops++
			busy += lat
		}
		sl.add(ops, st.n, busy)
		w.ops += ops
		w.answers += st.n
		r.oracle.checkPages(r.tgt.graph(large), st, cycle%8 == 0)
	}
	w.use, w.useOps = readUsage().sub(u0), w.ops
	w.rates, w.cpuOp = sl.rates, sl.cpuOp
	return w, nil
}

// mainWindow runs the workload's own traffic for d and returns what it
// measured and the streams to check. rounds is the least number of rounds
// of cold-start; cycles, when positive, replaces d for mutate-mix.
func (r *run) mainWindow(d time.Duration, rounds, cycles int, ed *editor) (*window, []*stream, error) {
	switch r.cfg.w.Main {
	case mainPoint:
		return r.pointWindow(d)
	case mainCold:
		w, st, err := r.coldWindow(d, rounds)
		return w, []*stream{st}, err
	case mainMutate:
		w, err := r.mutateWindow(d, cycles, ed)
		return w, nil, err
	default:
		st := newStream(large)
		w, err := r.scanWindow(st, d, scanPage)
		return w, []*stream{st}, err
	}
}

// probeWindow sends batches of random probes for d and returns the time
// per probe of each batch. kind is 't' for Test, 'n' for Next.
func (r *run) probeWindow(d time.Duration, kind byte) ([]float64, error) {
	batch := 500
	if r.cfg.w.Served {
		batch = 1 // a request is long enough to time by itself
	}
	var perProbe []float64
	res := make([]bool, batch)
	sols := make([][]int, batch)
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		tuples := r.oracle.probes(r.rng, batch)
		var lat time.Duration
		var err error
		t0 := time.Now()
		if kind == 't' {
			lat, err = r.tgt.test(tuples, res)
			for i, tu := range tuples {
				r.oracle.noteTest(tu, res[i])
			}
		} else {
			lat, err = r.tgt.next(tuples, sols)
			for i, tu := range tuples {
				r.oracle.noteNext(tu, sols[i])
			}
		}
		if err != nil {
			return nil, err
		}
		r.rec.request("probe", t0, lat)
		perProbe = append(perProbe, float64(lat.Nanoseconds())/float64(batch))
	}
	return perProbe, nil
}

// updateStarts sends writes for d, at least atLeast of them, and reads
// the first page at the new head after each.
func (r *run) updateStarts(ed *editor, d time.Duration, atLeast int) ([]time.Duration, error) {
	st := newStream(large)
	n := 0
	return repeat(d, atLeast, func() (time.Duration, error) {
		t0 := time.Now()
		edits := ed.next(r.tgt.graph(large))
		lat, err := parked(func() (time.Duration, error) { return r.tgt.update(edits, st) })
		if err == nil {
			r.rec.request("update", t0, lat)
			// Checking tuple by tuple takes ten times as long as the write.
			r.oracle.checkPages(r.tgt.graph(large), st, n%4 == 0)
			n++
		}
		return lat, err
	})
}

// parked runs one cold start with the collector parked. Whether a
// collection falls inside an operation of a hundred milliseconds is decided
// by a few megabytes of headroom under the heap goal — the same build read
// 112 ms without one and 150 ms with one, run after run — and which of the
// two a run's fastest build was made first_answer_ms spread by 17 %. The
// garbage a cold start makes is counted where it is collected: in the
// windows that follow, and in peak_rss_mb.
func parked(op func() (time.Duration, error)) (time.Duration, error) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	return op()
}

func (r *run) coldStart(sz size) (time.Duration, error) {
	return parked(func() (time.Duration, error) { return r.tgt.cold(sz) })
}

// coldPair drops and rebuilds both indexes of the target as setUp builds
// them — on a heap just collected that holds neither, the small one first —
// and keeps the times. Built with the old indexes still resident at the
// collection, the large index took a third longer than in a set-up.
func (r *run) coldPair() error {
	if err := r.tgt.evict(); err != nil {
		return err
	}
	runtime.GC()
	var d [2]time.Duration
	for _, sz := range []size{small, large} {
		t0 := time.Now()
		lat, err := r.coldStart(sz)
		if err != nil {
			return err
		}
		r.rec.request("cold", t0, lat)
		r.cold[sz] = append(r.cold[sz], lat)
		d[sz] = lat
	}
	r.exponent = append(r.exponent, buildExponent(d[small].Seconds(), d[large].Seconds(), r.g0[small].N(), r.g0[large].N()))
	runtime.GC() // as after a set-up
	return r.tgt.warm()
}

// probes spends d on random Test probes and d on random Next probes of the
// target's large index.
func (r *run) probes(d time.Duration) error {
	ns, err := r.probeWindow(d, 't')
	if err != nil {
		return err
	}
	r.testNS = append(r.testNS, ns...)
	if ns, err = r.probeWindow(d, 'n'); err != nil {
		return err
	}
	r.nextNS = append(r.nextNS, ns...)
	return nil
}

// round is one pass over every phase on a fresh set-up, in three legs that
// each begin with new indexes: the set-up's, then two further cold builds.
// How fast a random access into an index of tens of megabytes is depends on
// where its pages happen to lie (the same seed read 90 ns and 158 ns a Test
// in runs minutes apart), so each leg probes its own. The phases that read
// come first and are checked against the graphs as generated; the writes
// come last, and the target they leave behind is dropped by the next round's
// set-up.
func (r *run) round(measureHeap bool) error {
	w := r.cfg.w
	if err := r.setUp(measureHeap); err != nil {
		return err
	}
	r.phase("setup")
	if err := r.probes(r.span(probeShare / 3)); err != nil {
		return err
	}
	r.phase("probe")
	drift, dst, err := r.driftWindow(r.span(driftShare))
	if err != nil {
		return err
	}
	r.drift = append(r.drift, drift...)
	r.check = append(r.check, dst[large], dst[small])
	r.phase("drift")

	if err := r.coldPair(); err != nil {
		return err
	}
	r.phase("cold")
	if err := r.probes(r.span(probeShare / 3)); err != nil {
		return err
	}
	r.phase("probe")
	pst := newStream(large)
	pages, err := r.scanWindow(pst, r.span(pageShare), firstPage)
	if err != nil {
		return err
	}
	r.pageLat = append(r.pageLat, pages.lat...)
	r.check = append(r.check, pst)
	r.phase("pages")
	// Cold starts through the snapshot tier. cold-start does them in its
	// main window, beside cold starts through the build tier.
	mainD := r.span(mainShare)
	if w.Main == mainCold {
		mainD += r.span(restoreShare)
	} else {
		rest, err := repeat(r.span(restoreShare), 3, func() (time.Duration, error) {
			// A collection before each, although it takes longer than the
			// restore: without it a restore finds no freed memory to reuse
			// and faults fresh pages in, 30 ms for 22.
			runtime.GC()
			return parked(func() (time.Duration, error) { return r.tgt.restore(large) })
		})
		if err != nil {
			return err
		}
		r.rest = append(r.rest, rest...)
		r.phase("restore")
	}

	if err := r.coldPair(); err != nil {
		return err
	}
	r.phase("cold")
	if err := r.probes(r.span(probeShare / 3)); err != nil {
		return err
	}
	r.phase("probe")
	ed := newEditor(r.rng, r.g0[large])
	mw, sts, err := r.mainWindow(mainD, 1, 0, ed)
	if err != nil {
		return err
	}
	m := &r.main
	m.ops += mw.ops
	m.answers += mw.answers
	m.lat = append(m.lat, mw.lat...)
	m.rates = append(m.rates, mw.rates...)
	m.cpuOp = append(m.cpuOp, mw.cpuOp...)
	r.allocsOp = append(r.allocsOp, float64(mw.use.mallocs)/float64(mw.useOps))
	r.bytesOp = append(r.bytesOp, float64(mw.use.bytes)/float64(mw.useOps))
	r.check = append(r.check, sts...)
	r.phase("main")
	upd := mw.updLat
	if w.Main != mainMutate {
		// At least three: the first write to a target takes many times as
		// long as the ones after it.
		if upd, err = r.updateStarts(ed, r.span(updateShare), 3); err != nil {
			return err
		}
	}
	r.upd = append(r.upd, upd...)
	r.phase("update")
	return nil
}

// endToEndRun measures every end-to-end metric of one workload.
func endToEndRun(cfg runConfig) (*report, error) {
	r := newRun(cfg)
	defer r.close()
	rep := newReport(cfg, false)
	begin := time.Now()

	var err error
	if r.oracle, err = newOracle(cfg.w, r.generate()); err != nil {
		return nil, err
	}
	r.phase("check")

	// Rounds, until the time is up. A round is begun only if one as long as
	// the last would still end in time.
	budget := time.Duration(cfg.seconds * float64(time.Second))
	rounds := 0
	for last := time.Duration(0); rounds < minRounds || time.Since(begin)+last <= budget; rounds++ {
		t0 := time.Now()
		if err := r.round(rounds == 1); err != nil {
			return nil, err
		}
		last = time.Since(t0)
	}

	// Every stream kept was read at version 0 (mutate-mix checks its own
	// pages against its own head as it goes).
	r.oracle.checkStreams(r.check)
	r.oracle.checkNotes()
	r.phase("check")

	// Metrics. A time is the fast decile of its samples, pooled over the
	// rounds, or the fastest of them when there are only a few and none is
	// undisturbed (builds, restores, writes); README.md has the measurements
	// behind that.
	coldL := durationsMS(r.cold[large])
	rest, upd, pages := durationsMS(r.rest), durationsMS(r.upd), durationsUS(r.pageLat)
	rep.set("setup_s", quantile(r.setupS, 0.25), r.setupS)
	rep.set("answers_per_s", fastDecile(r.main.rates), r.main.rates)
	rep.set("page_p10_us", quantile(pages, 0.1), pages)
	rep.set("probe_ns", quantile(r.testNS, 0.1), r.testNS)
	rep.set("seek_ns", quantile(r.nextNS, 0.1), r.nextNS)
	rep.set("first_answer_ms", fastest(coldL), coldL)
	rep.set("first_answer_restore_ms", fastest(rest), rest)
	rep.set("build_exponent", quantile(r.exponent, 0.5), r.exponent)
	rep.set("delay_drift", quantile(r.drift, 0.5), r.drift)
	rep.set("update_ms", quantile(upd, 0.1), upd)
	rep.set("allocs_per_op", quantile(r.allocsOp, 0.5), r.allocsOp)
	rep.set("alloc_bytes_per_op", quantile(r.bytesOp, 0.5), r.bytesOp)
	rep.set("index_heap_mb", r.heapIndex, nil)
	rep.set("peak_rss_mb", peakRSSMB(), nil)

	rep.Windows = r.phases
	rep.Counts = map[string]int{
		"rounds": rounds, "main_ops": r.main.ops, "main_answers": r.main.answers, "main_slices": len(r.main.rates),
		"cold_large": len(r.cold[large]), "cold_small": len(r.cold[small]), "restores": len(r.rest), "updates": len(r.upd),
		"probe_batches": len(r.testNS), "seek_batches": len(r.nextNS), "page_samples": len(r.pageLat), "drift_pairs": len(r.drift),
	}
	rep.Series = map[string][]float64{
		"setup_s": r.setupS, "cold_large_ms": coldL, "cold_small_ms": durationsMS(r.cold[small]),
		"restore_ms": rest, "update_ms": upd[:min(len(upd), 400)],
	}
	rep.Attempted, rep.Failed = r.oracle.attempted+r.main.ops, r.oracle.failed
	for name, m := range rep.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("%s is not a number: %.1fs are too short for this workload", name, cfg.seconds)
		}
	}
	return rep, nil
}

func (u usage) sub(v usage) usage {
	return usage{
		mallocs: u.mallocs - v.mallocs, bytes: u.bytes - v.bytes, cpu: u.cpu - v.cpu,
		gcCycles: u.gcCycles - v.gcCycles, gcPause: u.gcPause - v.gcPause, heapSys: u.heapSys,
	}
}
