package serve

import (
	"container/list"
	"context"

	"sync"

	"repro"
	"repro/internal/obs"
)

// cacheKey identifies one index: a graph id, the graph version the index
// answers over, and the canonical query text (repro.Query.Canonical,
// stable under reparsing). Version is part of the key because an index is
// immutable — mutating a graph publishes a new version whose indexes are
// separate cache entries, derived on first use (see Server.buildIndex);
// indexes of versions that left the retention window simply age out of
// the LRU.
type cacheKey struct {
	graph     string
	version   int
	canonical string
}

// indexCache is an LRU over built indexes with singleflight deduplication:
// N concurrent Get calls for the same uncached key trigger exactly one
// build; the other N−1 wait on the flight and share its result. A waiter
// whose context expires leaves immediately (the request fails with the
// context error); when the last waiter of a flight has left, the build
// itself is canceled through the core's phase checkpoints and the flight
// leaves the map at once, so nobody can join it any more. Successful
// builds are inserted even if every waiter has gone — the work is done,
// the next request should profit.
type indexCache struct {
	mu      sync.Mutex
	cap     int
	entries map[cacheKey]*list.Element
	lru     *list.List // front = most recently used; Value = *cacheEntry
	flights map[cacheKey]*flight

	baseCtx context.Context // parent of every build; canceled on shutdown
	reg     *obs.Registry   // span source; nil means no tracing/metrics

	// tiers is every way of producing an index that is not resident, in
	// the order a miss tries them: cheapest first, the full build last. All
	// of them run inside the singleflight flight, so concurrent misses
	// share one disk probe, one migration and one build. newIndexCache
	// installs the build tier; the server puts its own in front of it
	// (Server.installTiers).
	tiers []cacheTier

	// Owned instruments; registered in the obs registry when present so
	// /v1/stats and /debug/metrics read the same numbers.
	hits       obs.Counter
	misses     obs.Counter
	evictions  obs.Counter
	builds     obs.Counter
	shared     obs.Counter // waiters that joined an existing flight
	snapHits   obs.Counter // memory misses served from the disk tier
	snapWrites obs.Counter // snapshots written back after a build
	migrations obs.Counter // misses served by ApplyEdits from an older version
	size       obs.Gauge
}

// cacheTier is one way of producing a missing index.
type cacheTier struct {
	span    string       // span around load, in the flight's trace
	counter *obs.Counter // flights that ended in this tier
	// load returns (nil, nil) to pass the miss on to the next tier; an
	// index or an error ends the flight. ctx is the flight's: it carries
	// the trace of the request that opened the flight, and is canceled
	// when the last waiter leaves.
	load func(ctx context.Context, key cacheKey) (*repro.Index, error)
	// store, if set, is handed every index this tier produces and reports
	// whether it persisted it (the disk write-back of the build tier).
	store func(ctx context.Context, key cacheKey, ix *repro.Index) bool
}

type cacheEntry struct {
	key cacheKey
	ix  *repro.Index
}

type flight struct {
	waiters int
	cancel  context.CancelFunc
	done    chan struct{}
	ix      *repro.Index
	err     error
}

func newIndexCache(baseCtx context.Context, capacity int, reg *obs.Registry,
	build func(ctx context.Context, key cacheKey) (*repro.Index, error)) *indexCache {
	if capacity < 1 {
		capacity = 1
	}
	c := &indexCache{
		cap:     capacity,
		entries: make(map[cacheKey]*list.Element),
		lru:     list.New(),
		flights: make(map[cacheKey]*flight),
		baseCtx: baseCtx,
		reg:     reg,
	}
	c.tiers = []cacheTier{{span: "cache.build", counter: &c.builds, load: build}}
	if reg != nil {
		reg.RegisterCounter("serve.cache.hits", &c.hits)
		reg.RegisterCounter("serve.cache.misses", &c.misses)
		reg.RegisterCounter("serve.cache.evictions", &c.evictions)
		reg.RegisterCounter("serve.cache.builds", &c.builds)
		reg.RegisterCounter("serve.cache.flight_shared", &c.shared)
		reg.RegisterCounter("serve.cache.snapshot_hits", &c.snapHits)
		reg.RegisterCounter("serve.cache.snapshot_writes", &c.snapWrites)
		reg.RegisterCounter("serve.cache.migrations", &c.migrations)
		reg.RegisterGauge("serve.cache.size", &c.size)
	}
	return c
}

// Get returns the index for key, building it (once, however many callers
// arrive concurrently) on a miss. hit reports whether the index was
// already resident. ctx bounds only this caller's wait; the build keeps
// running for the remaining waiters.
func (c *indexCache) Get(ctx context.Context, key cacheKey) (ix *repro.Index, hit bool, err error) {
	sp := c.reg.StartSpan(ctx, "cache.lookup")
	ix, hit, err = c.lookup(sp.Attach(ctx), key)
	sp.End()
	return ix, hit, err
}

// Peek returns the resident index for key without building, blocking on a
// flight, or touching the LRU order. Used by the migration path: a miss on
// (graph, v, q) first peeks for (graph, v-1, q) and replays the edit log
// instead of rebuilding.
func (c *indexCache) Peek(key cacheKey) (*repro.Index, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		return el.Value.(*cacheEntry).ix, true
	}
	return nil, false
}

func (c *indexCache) lookup(ctx context.Context, key cacheKey) (ix *repro.Index, hit bool, err error) {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.lru.MoveToFront(el)
		ix := el.Value.(*cacheEntry).ix
		c.mu.Unlock()
		c.hits.Inc()
		return ix, true, nil
	}
	f, ok := c.flights[key]
	if ok {
		f.waiters++
		c.shared.Inc()
	} else {
		bctx, cancel := context.WithCancel(c.baseCtx)
		// The flight outlives this request's context (other waiters may
		// still need the build), but its spans should land in the trace of
		// the request that opened it — carry the SpanCtx over explicitly.
		bctx = obs.ContextWithSpan(bctx, obs.SpanFromContext(ctx))
		f = &flight{waiters: 1, cancel: cancel, done: make(chan struct{})}
		c.flights[key] = f
		c.misses.Inc()
		go c.run(bctx, key, f)
	}
	c.mu.Unlock()

	select {
	case <-f.done:
		return f.ix, false, f.err
	case <-ctx.Done():
		c.mu.Lock()
		f.waiters--
		if f.waiters == 0 {
			select {
			case <-f.done: // build already finished; nothing to cancel
			default:
				// Retire the flight with its cancellation, under the same
				// lock: a retry arriving before run unwinds must open a
				// fresh flight, not join this one and inherit its
				// context.Canceled.
				f.cancel()
				if c.flights[key] == f {
					delete(c.flights, key)
				}
			}
		}
		c.mu.Unlock()
		return nil, false, ctx.Err()
	}
}

func (c *indexCache) run(ctx context.Context, key cacheKey, f *flight) {
	fl := c.reg.StartSpan(ctx, "cache.flight")
	ctx = fl.Attach(ctx)
	var ix *repro.Index
	var err error
	for _, t := range c.tiers {
		sp := c.reg.StartSpan(ctx, t.span)
		ix, err = t.load(sp.Attach(ctx), key)
		sp.End()
		if ix == nil && err == nil {
			continue
		}
		t.counter.Inc()
		if ix != nil && t.store != nil {
			sp = c.reg.StartSpan(ctx, "cache.snapshot_write")
			ok := t.store(sp.Attach(ctx), key, ix)
			sp.End()
			if ok {
				c.snapWrites.Inc()
			}
		}
		break
	}
	fl.End()
	f.cancel() // release the context's resources
	c.mu.Lock()
	f.ix, f.err = ix, err
	if c.flights[key] == f { // an abandoned flight was retired when it was canceled
		delete(c.flights, key)
	}
	if err == nil {
		c.insertLocked(key, ix)
	}
	c.mu.Unlock()
	// Wake the waiters only after the lock is dropped: close wakes every
	// blocked lookup at once, and each of them immediately re-takes c.mu —
	// closing inside the section would stampede them straight into the
	// held lock. f.ix/f.err are written before the close in program order,
	// so waiters still observe them.
	close(f.done)
}

func (c *indexCache) insertLocked(key cacheKey, ix *repro.Index) {
	if el, ok := c.entries[key]; ok { // lost a (cross-key) race; refresh
		el.Value.(*cacheEntry).ix = ix
		c.lru.MoveToFront(el)
		return
	}
	c.entries[key] = c.lru.PushFront(&cacheEntry{key: key, ix: ix})
	for c.lru.Len() > c.cap {
		back := c.lru.Back()
		c.lru.Remove(back)
		delete(c.entries, back.Value.(*cacheEntry).key)
		c.evictions.Inc()
	}
	c.size.Set(int64(c.lru.Len()))
}

// Flush drops every cached index (in-progress flights keep running and
// re-insert on completion). Returns the number of dropped entries.
func (c *indexCache) Flush() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.lru.Len()
	c.lru.Init()
	clear(c.entries)
	c.size.Set(0)
	return n
}

// CacheStats is a point-in-time view of the cache, served by /v1/stats.
type CacheStats struct {
	Capacity     int   `json:"capacity"`
	Size         int   `json:"size"`
	Hits         int64 `json:"hits"`
	Misses       int64 `json:"misses"`
	Evictions    int64 `json:"evictions"`
	Builds       int64 `json:"builds"`
	FlightShared int64 `json:"flight_shared"`
	// SnapshotHits counts memory misses answered by loading a disk
	// snapshot instead of building; SnapshotWrites counts write-backs of
	// freshly built indexes. Both stay 0 without Config.SnapshotDir.
	SnapshotHits   int64 `json:"snapshot_hits"`
	SnapshotWrites int64 `json:"snapshot_writes"`
	// Migrations counts misses served by replaying an edit log onto a
	// resident index of an older graph version (ApplyEdits) instead of
	// building from scratch.
	Migrations int64 `json:"migrations"`
}

func (c *indexCache) Stats() CacheStats {
	c.mu.Lock()
	size := c.lru.Len()
	c.mu.Unlock()
	return CacheStats{
		Capacity:       c.cap,
		Size:           size,
		Hits:           c.hits.Load(),
		Misses:         c.misses.Load(),
		Evictions:      c.evictions.Load(),
		Builds:         c.builds.Load(),
		FlightShared:   c.shared.Load(),
		SnapshotHits:   c.snapHits.Load(),
		SnapshotWrites: c.snapWrites.Load(),
		Migrations:     c.migrations.Load(),
	}
}
