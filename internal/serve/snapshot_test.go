package serve

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro"
	"repro/internal/obs"
	"repro/internal/snap"
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

// TestSnapshotTierVerifiesOnce: one disk-tier load checksums the file once.
// The request trace of a snapshot hit holds exactly one parse span — the
// tier's own snap.Parse, a child of cache.snapshot_load — and the
// snap.decode tree beside it, which works from that parsed file, has none.
func TestSnapshotTierVerifiesOnce(t *testing.T) {
	tracer := obs.NewTracer(obs.TracerConfig{Buffer: 16, Slow: -1})
	s, ts := testServer(t, func(c *Config) {
		c.SnapshotDir = t.TempDir()
		c.Tracer = tracer
	})
	qr := registerQuery(t, ts.URL, "path", snapTestQuery, "x", "y")
	if resp, data := postJSON(t, ts.URL+"/v1/cache/flush", struct{}{}); resp.StatusCode != http.StatusOK {
		t.Fatalf("flush: %d: %s", resp.StatusCode, data)
	}
	resp, _ := getJSON(t, ts.URL+"/v1/enumerate?query="+qr.ID+"&limit=3")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("enumerate: %d", resp.StatusCode)
	}
	if st := s.cache.Stats(); st.SnapshotHits != 1 || st.Builds != 1 {
		t.Fatalf("snapHits=%d builds=%d, want the enumerate served from disk after one build", st.SnapshotHits, st.Builds)
	}
	id, ok := obs.ParseTraceID(traceIDOf(t, resp))
	if !ok {
		t.Fatal("unparsable trace id")
	}
	tr := tracer.Get(id)
	if tr == nil {
		t.Fatal("the snapshot hit's trace was not retained")
	}

	var load *obs.SpanNode
	var find func(ns []*obs.SpanNode)
	find = func(ns []*obs.SpanNode) {
		for _, n := range ns {
			if n.Name == "cache.snapshot_load" {
				load = n
			}
			find(n.Children)
		}
	}
	find(tr.Detail().Tree)
	if load == nil {
		t.Fatal("no cache.snapshot_load span in the trace")
	}
	var parses, decodes []string
	var walk func(n *obs.SpanNode, underDecode bool)
	walk = func(n *obs.SpanNode, underDecode bool) {
		if n.Name == "parse" || strings.HasSuffix(n.Name, ".parse") {
			parses = append(parses, n.Name)
			if underDecode {
				t.Errorf("span %s: the decode verifies the file again", n.Name)
			}
		}
		if n.Name == "snap.decode" {
			decodes = append(decodes, n.Name)
			underDecode = true
		}
		for _, c := range n.Children {
			walk(c, underDecode)
		}
	}
	walk(load, false)
	if len(parses) != 1 || len(decodes) != 1 {
		t.Fatalf("one snapshot load recorded parse spans %v and %d decodes, want one of each", parses, len(decodes))
	}
	direct := false
	for _, c := range load.Children {
		direct = direct || c.Name == parses[0]
	}
	if !direct {
		t.Fatalf("span %s is not a child of cache.snapshot_load", parses[0])
	}
}

// TestSnapshotTierReadError: a snapshot path the disk will not read — here
// a directory sits where the file belongs — is not a cold tier. The request
// is answered by a build, the failure is counted on its own, and the
// write-back, which cannot rename a file over a directory, leaves what it
// found.
func TestSnapshotTierReadError(t *testing.T) {
	dir := t.TempDir()
	q, err := repro.ParseQuery(snapTestQuery, "x", "y")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, queryID("path", q.Canonical())+".fodsnap")
	if err := os.Mkdir(path, 0o755); err != nil {
		t.Fatal(err)
	}
	keep := filepath.Join(path, "keep")
	if err := os.WriteFile(keep, []byte("not ours"), 0o644); err != nil {
		t.Fatal(err)
	}

	s, ts := snapTestServer(t, dir)
	qr := registerQuery(t, ts, "path", snapTestQuery, "x", "y")
	st := s.cache.Stats()
	if st.Builds != 1 || st.SnapshotHits != 0 || st.SnapshotWrites != 0 {
		t.Fatalf("unreadable snapshot: builds=%d snapHits=%d snapWrites=%d, want 1/0/0", st.Builds, st.SnapshotHits, st.SnapshotWrites)
	}
	if got := s.reg.Counter("serve.snapshot.read_errors").Load(); got != 1 {
		t.Fatalf("read_errors counter = %d, want 1", got)
	}
	for _, other := range []string{"serve.snapshot.corrupt", "serve.snapshot.mismatch"} {
		if got := s.reg.Counter(other).Load(); got != 0 {
			t.Fatalf("%s = %d for a file that was never read", other, got)
		}
	}
	if got := s.reg.Counter("serve.snapshot.write_errors").Load(); got != 1 {
		t.Fatalf("write_errors counter = %d, want 1 (a rename over a directory)", got)
	}
	if resp, data := getJSON(t, ts+"/v1/enumerate?query="+qr.ID+"&limit=3"); resp.StatusCode != http.StatusOK {
		t.Fatalf("enumerate after the failed read: %d: %s", resp.StatusCode, data)
	}
	if b, err := os.ReadFile(keep); err != nil || string(b) != "not ours" {
		t.Fatalf("the directory's content was touched: %q, %v", b, err)
	}
	left, err := os.ReadDir(dir)
	if err != nil || len(left) != 1 {
		t.Fatalf("the snapshot directory holds %d entries (%v), want the one it had", len(left), err)
	}
}

// TestSnapshotTierVersion1IsAMiss: a file of format version 1 in the
// snapshot directory — left by a server from before the checksum changed —
// records the version-1 fingerprint of its graph, which is not the one this
// server computes: a mismatch, rebuilt and overwritten by a file of the
// current version that the next cold start takes. The fixture is the snap
// package's version-1 golden, served under the graph it was built on.
func TestSnapshotTierVersion1IsAMiss(t *testing.T) {
	oldVersionIsAMiss(t, "golden-grid64.fodsnap", 1)
}

// TestSnapshotTierVersion2IsAMiss: a version-2 file records the fingerprint
// this server computes and would restore, but without the partner rows of
// version 3, which every cold start would then build again: the same miss,
// the same overwrite.
func TestSnapshotTierVersion2IsAMiss(t *testing.T) {
	oldVersionIsAMiss(t, "golden-grid64.v2.fodsnap", 2)
	oldVersionIsAMiss(t, "golden-bdeg64.v2.fodsnap", 2)
}

// TestSnapshotTierVersion3IsAMiss: a version-3 file holds a skip table under
// every component at k = arity − 1; restored, the tables the plan of version
// 4 builds smaller would stay as large as they were on every cold start. The
// same miss, the same overwrite — for the cover form, whose file changed, and
// for the ball form, whose file did not: one rule, the version word.
func TestSnapshotTierVersion3IsAMiss(t *testing.T) {
	oldVersionIsAMiss(t, "golden-grid64.v3.fodsnap", 3)
	oldVersionIsAMiss(t, "golden-bdeg64.v3.fodsnap", 3)
}

func oldVersionIsAMiss(t *testing.T, fixture string, version uint32) {
	old, err := os.ReadFile(filepath.Join("..", "snap", "testdata", fixture))
	if err != nil {
		t.Fatal(err)
	}
	f, err := snap.Parse(old)
	if err != nil || f.Version() != version {
		t.Fatalf("%s is not a version-%d file: %v", fixture, version, err)
	}
	meta, err := snap.ReadMeta(f)
	if err != nil {
		t.Fatal(err)
	}
	g, err := repro.SnapshotGraph(old)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, queryID("grid", meta.Canonical)+".fodsnap")
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	for start, want := range []CacheStats{{Builds: 1, SnapshotWrites: 1}, {SnapshotHits: 1}} {
		s := NewServer(Config{Graphs: map[string]*repro.Graph{"grid": g}, SnapshotDir: dir, Metrics: obs.New(), Engine: engineOf(meta.Locality)})
		ts := httptest.NewServer(s.Handler())
		registerQuery(t, ts.URL, "grid", meta.Query, meta.Vars...)
		ts.Close()
		st := s.cache.Stats()
		if st.Builds != want.Builds || st.SnapshotHits != want.SnapshotHits || st.SnapshotWrites != want.SnapshotWrites {
			t.Fatalf("start %d: builds=%d snapHits=%d snapWrites=%d, want %d/%d/%d", start,
				st.Builds, st.SnapshotHits, st.SnapshotWrites, want.Builds, want.SnapshotHits, want.SnapshotWrites)
		}
		if got := s.reg.Counter("serve.snapshot.mismatch").Load(); got != int64(1-start) {
			t.Fatalf("start %d: mismatch counter = %d", start, got)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if f, err := snap.Parse(data); err != nil || f.Version() != snap.Version {
		t.Fatalf("the write-back left a version-%d file (%v), want %d", f.Version(), err, snap.Version)
	}
}

// engineOf is the engine mode under which a server builds the locality a
// snapshot's metadata names.
func engineOf(locality string) repro.EngineKind {
	if locality == "balls" {
		return repro.EngineLowDeg
	}
	return repro.EngineCore
}
