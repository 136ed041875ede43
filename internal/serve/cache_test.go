package serve

import (
	"context"
	"encoding/base64"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro"
)

// stubIndex returns a trivially buildable index for cache unit tests.
func stubIndex(t *testing.T) *repro.Index {
	t.Helper()
	g := repro.Generate("path", 10, repro.GenOptions{Colors: 1, Seed: 1})
	ix, err := repro.Build(context.Background(), g, repro.MustParseQuery("C0(x)", "x"))
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func TestCacheLRUEviction(t *testing.T) {
	ix := stubIndex(t)
	var builds atomic.Int64
	c := newIndexCache(context.Background(), 2, nil, func(ctx context.Context, key cacheKey) (*repro.Index, error) {
		builds.Add(1)
		return ix, nil
	})
	key := func(i int) cacheKey { return cacheKey{graph: "g", canonical: fmt.Sprint(i)} }

	get := func(i int) bool {
		t.Helper()
		_, hit, err := c.Get(context.Background(), key(i))
		if err != nil {
			t.Fatal(err)
		}
		return hit
	}
	get(1) // miss: {1}
	get(2) // miss: {2 1}
	if !get(1) {
		t.Fatal("1 should be cached") // {1 2}
	}
	get(3) // miss, evicts 2: {3 1}
	if get(2) {
		t.Fatal("2 should have been the LRU victim")
	}
	st := c.Stats()
	if st.Builds != 4 || st.Evictions != 2 || st.Size != 2 {
		t.Fatalf("stats: %+v", st)
	}
	if c.Flush() != 2 {
		t.Fatal("flush should drop both entries")
	}
	if c.Stats().Size != 0 {
		t.Fatal("size after flush")
	}
	if get(1) {
		t.Fatal("1 should rebuild after flush")
	}
}

func TestCacheSingleflightSharesOneBuild(t *testing.T) {
	ix := stubIndex(t)
	var builds atomic.Int64
	release := make(chan struct{})
	c := newIndexCache(context.Background(), 4, nil, func(ctx context.Context, key cacheKey) (*repro.Index, error) {
		builds.Add(1)
		<-release
		return ix, nil
	})

	const waiters = 10
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, _, err := c.Get(context.Background(), cacheKey{graph: "g", canonical: "q"})
			if err != nil || got != ix {
				t.Errorf("Get: %v %v", got, err)
			}
		}()
	}
	// Wait until every goroutine joined the flight, then release the build.
	deadline := time.After(2 * time.Second)
	for c.Stats().FlightShared < waiters-1 {
		select {
		case <-deadline:
			t.Fatalf("only %d waiters joined", c.Stats().FlightShared)
		case <-time.After(time.Millisecond):
		}
	}
	close(release)
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Fatalf("%d builds, want 1", n)
	}
}

// TestCacheBuildCanceledWhenAllWaitersLeave: once the last waiter's
// context expires, the build context is canceled; the failed flight is
// not cached and a retry rebuilds.
func TestCacheBuildCanceledWhenAllWaitersLeave(t *testing.T) {
	ix := stubIndex(t)
	var builds atomic.Int64
	canceled := make(chan struct{})
	c := newIndexCache(context.Background(), 4, nil, func(ctx context.Context, key cacheKey) (*repro.Index, error) {
		if builds.Add(1) == 1 {
			<-ctx.Done() // simulate a long build interrupted at a checkpoint
			close(canceled)
			return nil, ctx.Err()
		}
		return ix, nil
	})

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	_, _, err := c.Get(ctx, cacheKey{graph: "g", canonical: "q"})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("waiter error %v, want DeadlineExceeded", err)
	}
	select {
	case <-canceled:
	case <-time.After(2 * time.Second):
		t.Fatal("build context was never canceled")
	}
	// Retry rebuilds (the canceled flight did not poison the key).
	got, _, err := c.Get(context.Background(), cacheKey{graph: "g", canonical: "q"})
	if err != nil || got != ix {
		t.Fatalf("retry: %v %v", got, err)
	}
	if n := builds.Load(); n != 2 {
		t.Fatalf("%d builds, want 2", n)
	}
}

// TestCacheAbandonedSuccessIsCached: a build whose waiters all left but
// which completes before noticing cancellation still lands in the cache.
func TestCacheAbandonedSuccessIsCached(t *testing.T) {
	ix := stubIndex(t)
	var builds atomic.Int64
	started := make(chan struct{})
	finish := make(chan struct{})
	c := newIndexCache(context.Background(), 4, nil, func(ctx context.Context, key cacheKey) (*repro.Index, error) {
		if builds.Add(1) == 1 {
			close(started)
		}
		<-finish // ignore ctx: a build between checkpoints can't be stopped
		return ix, nil
	})
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-started
		cancel() // abandon the only waiter
	}()
	if _, _, err := c.Get(ctx, cacheKey{graph: "g", canonical: "q"}); !errors.Is(err, context.Canceled) {
		t.Fatalf("waiter error %v, want Canceled", err)
	}
	close(finish)
	// The orphaned result must become visible as a cache hit.
	deadline := time.After(2 * time.Second)
	for {
		_, hit, err := c.Get(context.Background(), cacheKey{graph: "g", canonical: "q"})
		if err != nil {
			t.Fatal(err)
		}
		if hit {
			break
		}
		select {
		case <-deadline:
			t.Fatal("orphaned successful build never cached")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	if n := builds.Load(); n > 2 {
		t.Fatalf("%d builds for one abandoned flight + polling hits", n)
	}
}

// TestCacheAbandonedFlightIsNotJoined: the flight whose last waiter left is
// canceled and retired in one step, so a retry that arrives while its build
// is still unwinding (parked here until the test lets it go) opens a fresh
// flight instead of inheriting context.Canceled from the doomed one.
func TestCacheAbandonedFlightIsNotJoined(t *testing.T) {
	ix := stubIndex(t)
	var builds atomic.Int64
	parked := make(chan struct{})
	release := make(chan struct{})
	unwound := make(chan struct{})
	c := newIndexCache(context.Background(), 4, nil, func(ctx context.Context, key cacheKey) (*repro.Index, error) {
		if builds.Add(1) > 1 {
			return ix, nil
		}
		close(parked)
		<-release // between checkpoints: the cancellation is not seen yet
		defer close(unwound)
		return nil, ctx.Err()
	})
	key := cacheKey{graph: "g", canonical: "q"}

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-parked
		cancel() // the only waiter leaves while the build is parked
	}()
	if _, _, err := c.Get(ctx, key); !errors.Is(err, context.Canceled) {
		t.Fatalf("waiter error %v, want Canceled", err)
	}
	// The doomed build has not returned: the retry must not wait for it
	// (joining it would, until the timeout).
	rctx, rcancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer rcancel()
	got, hit, err := c.Get(rctx, key)
	if err != nil || got != ix || hit {
		t.Fatalf("retry beside a canceled flight: ix=%v hit=%v err=%v", got, hit, err)
	}
	if st := c.Stats(); builds.Load() != 2 || st.FlightShared != 0 || st.Misses != 2 {
		t.Fatalf("%d builds, stats %+v: the retry joined the canceled flight", builds.Load(), st)
	}
	// When the doomed flight finally unwinds it must leave the retry's
	// entry alone.
	close(release)
	<-unwound
	if got, hit, err := c.Get(context.Background(), key); err != nil || got != ix || !hit {
		t.Fatalf("after the canceled flight unwound: ix=%v hit=%v err=%v", got, hit, err)
	}
}

func TestCursorRoundTrip(t *testing.T) {
	for _, tup := range [][]int{{0}, {1, 2}, {0, 0, 0}, {999999, 0, 31}} {
		for _, ver := range []int{0, 1, 37} {
			cur := encodeCursor("abc123", ver, tup)
			id, gotVer, got, err := decodeCursor(cur)
			if err != nil {
				t.Fatalf("decode(%v@%d): %v", tup, ver, err)
			}
			if id != "abc123" || gotVer != ver || !tupleEqual(got, tup) {
				t.Fatalf("round trip %v@%d -> %q @%d %v", tup, ver, id, gotVer, got)
			}
		}
	}
	// Legacy v1 cursors ("v1 <id> <tuple...>") decode to cursorHead: they
	// predate versioned graphs and resume at the current head.
	v1 := base64.RawURLEncoding.EncodeToString([]byte("v1 abc123 4 7"))
	id, ver, got, err := decodeCursor(v1)
	if err != nil {
		t.Fatalf("v1 cursor rejected: %v", err)
	}
	if id != "abc123" || ver != cursorHead || !tupleEqual(got, []int{4, 7}) {
		t.Fatalf("v1 cursor decoded to %q @%d %v", id, ver, got)
	}
	for _, bad := range []string{
		"", "!!!", "djEgYQ",
		encodeCursor("q", 0, nil),                                 // v2 with no tuple
		base64.RawURLEncoding.EncodeToString([]byte("v2 q -3 1")), // negative version
		base64.RawURLEncoding.EncodeToString([]byte("v3 q 0 1")),  // unknown format
	} {
		if _, _, _, err := decodeCursor(bad); err == nil {
			t.Fatalf("decode(%q) accepted", bad)
		}
	}
}

// FuzzDecodeCursor: decodeCursor never panics, and every cursor
// appendCursor makes — a 16-hex-digit query id, a version ≥ 0, a tuple of
// arity 1–4 — decodes back to its own id, version and tuple. The seeds are
// a v1 cursor and the malformed cursors the handler answers
// invalid_cursor.
func FuzzDecodeCursor(f *testing.F) {
	raw := func(s string) string { return base64.RawURLEncoding.EncodeToString([]byte(s)) }
	for _, cur := range []string{raw("v1 abc123 4 7"), "", "!!!", "djEgYQ",
		encodeCursor("q", 0, nil), raw("v2 q -3 1"), raw("v3 q 0 1")} {
		f.Add(cur, uint64(0), uint64(0), uint8(0), int64(0), int64(0), int64(0), int64(0))
	}
	f.Add("", uint64(math.MaxUint64), uint64(math.MaxUint64), uint8(3),
		int64(math.MaxInt64), int64(math.MinInt64), int64(0), int64(1)<<40)
	f.Fuzz(func(t *testing.T, cur string, id, version uint64, arity uint8, v0, v1, v2, v3 int64) {
		decodeCursor(cur)
		qid, ver := fmt.Sprintf("%016x", id), int(version>>1)
		tuple := []int{int(v0), int(v1), int(v2), int(v3)}[:1+arity%4]
		gotID, gotVer, got, err := decodeCursor(string(appendCursor(nil, qid, ver, tuple)))
		if err != nil || gotID != qid || gotVer != ver || !tupleEqual(got, tuple) {
			t.Fatalf("(%s, %d, %v) decoded to (%s, %d, %v), %v", qid, ver, tuple, gotID, gotVer, got, err)
		}
	})
}
