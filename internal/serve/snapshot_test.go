package serve

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro"
	"repro/internal/obs"
)

// The disk-tier tests drive the full HTTP surface against a server with
// Config.SnapshotDir set, checking the three-tier contract: memory LRU →
// disk snapshot → build, with the singleflight covering both lower tiers
// and write-back after every build.

// snapGraph regenerates the exact graph snapTestServer serves, for
// out-of-band index builds that must fingerprint-match it.
func snapGraph() *repro.Graph {
	return repro.Generate("path", 80, repro.GenOptions{Colors: 2, Seed: 11})
}

func snapTestServer(t *testing.T, dir string) (*Server, string) {
	t.Helper()
	s := NewServer(Config{
		Graphs:      map[string]*repro.Graph{"path": snapGraph()},
		SnapshotDir: dir,
		Metrics:     obs.New(),
	})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts.URL
}

const snapTestQuery = "dist(x,y) > 2 & C0(y)"

// TestSnapshotTierWriteBack: a cold registration on an empty directory
// builds once and persists the snapshot for the next process.
func TestSnapshotTierWriteBack(t *testing.T) {
	dir := t.TempDir()
	s, ts := snapTestServer(t, dir)
	qr := registerQuery(t, ts, "path", snapTestQuery, "x", "y")

	st := s.cache.Stats()
	if st.Builds != 1 || st.SnapshotHits != 0 || st.SnapshotWrites != 1 {
		t.Fatalf("cold register: builds=%d snapHits=%d snapWrites=%d, want 1/0/1",
			st.Builds, st.SnapshotHits, st.SnapshotWrites)
	}
	path := filepath.Join(dir, qr.ID+".fodsnap")
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("write-back left no snapshot at %s: %v", path, err)
	}
	// The written file is keyed by the same deterministic id the API
	// returned, and round-trips through the out-of-band loader.
	if _, err := repro.LoadIndexSnapshot(path); err != nil {
		t.Fatalf("written snapshot does not load: %v", err)
	}
}

// TestSnapshotTierColdStart: a directory seeded by a previous run (here:
// an out-of-band build, as fodsnap build would produce) serves the first
// request from disk — zero builds.
func TestSnapshotTierColdStart(t *testing.T) {
	dir := t.TempDir()
	q, err := repro.ParseQuery(snapTestQuery, "x", "y")
	if err != nil {
		t.Fatal(err)
	}
	ix, err := repro.Build(context.Background(), snapGraph(), q)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, queryID("path", q.Canonical())+".fodsnap")
	if err := repro.SaveIndexSnapshot(ix, path); err != nil {
		t.Fatal(err)
	}

	s, ts := snapTestServer(t, dir)
	registerQuery(t, ts, "path", snapTestQuery, "x", "y")
	st := s.cache.Stats()
	if st.Builds != 0 || st.SnapshotHits != 1 {
		t.Fatalf("seeded cold start: builds=%d snapHits=%d, want 0/1", st.Builds, st.SnapshotHits)
	}

	// The disk-loaded index must answer exactly like a fresh build.
	var want [][]int
	ix.Enumerate(func(sol []int) bool {
		want = append(want, append([]int(nil), sol...))
		return len(want) < 50
	})
	resp, data := getJSON(t, ts+"/v1/enumerate?query="+queryID("path", q.Canonical())+"&limit=50")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("enumerate over loaded index: status %d: %s", resp.StatusCode, data)
	}
	er := mustDecode[EnumerateResponse](t, data)
	if len(er.Solutions) != len(want) {
		t.Fatalf("loaded index returned %d solutions, fresh build %d", len(er.Solutions), len(want))
	}
	for i := range want {
		if !tupleEqual(er.Solutions[i], want[i]) {
			t.Fatalf("solution %d: loaded %v, fresh %v", i, er.Solutions[i], want[i])
		}
	}
}

// TestSnapshotTierConcurrentSingleflight: N concurrent registrations of
// the same uncached query share one flight across BOTH lower tiers — one
// disk probe, one build, one write-back.
func TestSnapshotTierConcurrentSingleflight(t *testing.T) {
	dir := t.TempDir()
	s, ts := snapTestServer(t, dir)

	const n = 8
	var wg sync.WaitGroup
	errs := make(chan string, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, data := postJSON(t, ts+"/v1/query",
				QueryRequest{Graph: "path", Query: snapTestQuery, Vars: []string{"x", "y"}})
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Sprintf("status %d: %s", resp.StatusCode, data)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	st := s.cache.Stats()
	if st.Builds != 1 {
		t.Fatalf("%d concurrent registrations ran %d builds, want 1", n, st.Builds)
	}
	if st.SnapshotWrites != 1 {
		t.Fatalf("%d concurrent registrations wrote %d snapshots, want 1", n, st.SnapshotWrites)
	}
	if st.Misses != 1 {
		t.Fatalf("%d concurrent registrations counted %d misses, want 1 (singleflight)", n, st.Misses)
	}
}

// TestSnapshotTierFlushKeepsDisk: flushing the memory tier does not touch
// the disk tier — the next request reloads from the snapshot instead of
// rebuilding.
func TestSnapshotTierFlushKeepsDisk(t *testing.T) {
	dir := t.TempDir()
	s, ts := snapTestServer(t, dir)
	registerQuery(t, ts, "path", snapTestQuery, "x", "y")

	resp, data := postJSON(t, ts+"/v1/cache/flush", struct{}{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("flush: status %d: %s", resp.StatusCode, data)
	}
	if fr := mustDecode[FlushResponse](t, data); fr.Flushed != 1 {
		t.Fatalf("flushed %d entries, want 1", fr.Flushed)
	}

	registerQuery(t, ts, "path", snapTestQuery, "x", "y")
	st := s.cache.Stats()
	if st.Builds != 1 {
		t.Fatalf("post-flush registration rebuilt (builds=%d), want disk reload", st.Builds)
	}
	if st.SnapshotHits != 1 {
		t.Fatalf("post-flush registration had %d snapshot hits, want 1", st.SnapshotHits)
	}
}

// TestSnapshotTierRejectsForeignAndCorrupt: a snapshot from a different
// graph, one of another engine than the server builds, and a corrupted
// file are all refused and fall back to building — never served, and
// counted under distinct metrics.
func TestSnapshotTierRejectsForeignAndCorrupt(t *testing.T) {
	t.Run("other engine", func(t *testing.T) {
		// The directory was written under -engine lowdeg; this server runs
		// the default mode, which builds core indexes. The file is a miss:
		// counted, rebuilt, overwritten.
		dir := t.TempDir()
		q, err := repro.ParseQuery(snapTestQuery, "x", "y")
		if err != nil {
			t.Fatal(err)
		}
		ix, err := repro.Build(context.Background(), snapGraph(), q, repro.WithEngine(repro.EngineLowDeg))
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, queryID("path", q.Canonical())+".fodsnap")
		if err := repro.SaveIndexSnapshot(ix, path); err != nil {
			t.Fatal(err)
		}

		s, ts := snapTestServer(t, dir)
		qr := registerQuery(t, ts, "path", snapTestQuery, "x", "y")
		st := s.cache.Stats()
		if st.Builds != 1 || st.SnapshotHits != 0 || st.SnapshotWrites != 1 {
			t.Fatalf("lowdeg snapshot under a core server: builds=%d snapHits=%d snapWrites=%d, want 1/0/1", st.Builds, st.SnapshotHits, st.SnapshotWrites)
		}
		if got := s.reg.Counter("serve.snapshot.mismatch").Load(); got != 1 {
			t.Fatalf("mismatch counter = %d, want 1", got)
		}
		_, data := postJSON(t, ts+"/v1/count", CountRequest{ID: qr.ID})
		if cr := mustDecode[CountResponse](t, data); cr.Engine != string(repro.EngineCore) || cr.Count != ix.Count() {
			t.Fatalf("served %d answers by %q, want %d by core", cr.Count, cr.Engine, ix.Count())
		}
		repaired, err := repro.LoadIndexSnapshot(path)
		if err != nil || repaired.Engine() != repro.EngineCore {
			t.Fatalf("write-back left a %v index (%v), want a core one", repaired.Engine(), err)
		}
	})

	t.Run("foreign graph", func(t *testing.T) {
		dir := t.TempDir()
		q, err := repro.ParseQuery(snapTestQuery, "x", "y")
		if err != nil {
			t.Fatal(err)
		}
		other := repro.Generate("path", 80, repro.GenOptions{Colors: 2, Seed: 12}) // different seed
		ix, err := repro.Build(context.Background(), other, q)
		if err != nil {
			t.Fatal(err)
		}
		if err := repro.SaveIndexSnapshot(ix, filepath.Join(dir, queryID("path", q.Canonical())+".fodsnap")); err != nil {
			t.Fatal(err)
		}

		s, ts := snapTestServer(t, dir)
		registerQuery(t, ts, "path", snapTestQuery, "x", "y")
		st := s.cache.Stats()
		if st.Builds != 1 || st.SnapshotHits != 0 {
			t.Fatalf("foreign snapshot: builds=%d snapHits=%d, want 1/0", st.Builds, st.SnapshotHits)
		}
		if got := s.reg.Counter("serve.snapshot.mismatch").Load(); got != 1 {
			t.Fatalf("mismatch counter = %d, want 1", got)
		}
	})

	t.Run("corrupt file", func(t *testing.T) {
		dir := t.TempDir()
		q, err := repro.ParseQuery(snapTestQuery, "x", "y")
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, queryID("path", q.Canonical())+".fodsnap")
		if err := os.WriteFile(path, []byte("FODSNAP1 but then garbage"), 0o644); err != nil {
			t.Fatal(err)
		}

		s, ts := snapTestServer(t, dir)
		registerQuery(t, ts, "path", snapTestQuery, "x", "y")
		st := s.cache.Stats()
		if st.Builds != 1 || st.SnapshotHits != 0 {
			t.Fatalf("corrupt snapshot: builds=%d snapHits=%d, want 1/0", st.Builds, st.SnapshotHits)
		}
		if got := s.reg.Counter("serve.snapshot.corrupt").Load(); got != 1 {
			t.Fatalf("corrupt counter = %d, want 1", got)
		}
		// The build must have overwritten the bad file with a good one.
		if _, err := repro.LoadIndexSnapshot(path); err != nil {
			t.Fatalf("write-back did not repair the corrupt file: %v", err)
		}
	})
}
