package serve

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"log/slog"
	"os"
	"path/filepath"
	"time"

	"repro"
	"repro/internal/snap"
)

// installTiers defines the server's cache tiers, in the order a miss tries
// them: disk snapshot (when configured), migration from an older resident
// version, and last the full build the cache was created with — which
// also writes the snapshot back.
func (s *Server) installTiers() {
	c := s.cache
	var before []cacheTier
	if s.cfg.SnapshotDir != "" {
		s.graphFP = make(map[string]string, len(s.cfg.Graphs))
		for name, g := range s.cfg.Graphs {
			s.graphFP[name] = snap.FingerprintString(snap.Fingerprint(g))
		}
		before = append(before, cacheTier{span: "cache.snapshot_load", counter: &c.snapHits, load: s.loadSnapshot})
		c.tiers[len(c.tiers)-1].store = s.writeSnapshot
	}
	before = append(before, cacheTier{span: "cache.migrate", counter: &c.migrations, load: s.migrateIndex})
	c.tiers = append(before, c.tiers...)
}

// snapshotPath is the disk-tier file of one (graph, query) pair, keyed by
// the same deterministic id the API exposes.
func (s *Server) snapshotPath(key cacheKey) string {
	return filepath.Join(s.cfg.SnapshotDir, queryID(key.graph, key.canonical)+".fodsnap")
}

// loadSnapshot is the disk tier of the index cache: one read, one
// snap.Parse — which checksums every byte of the file, once — and then,
// from that parsed file, first the cheap validation (metadata canonical
// text and graph fingerprint against the served graph) and only then the
// decode and restore. A file of either engine restores; one that holds
// another engine than this server would build for the graph (the -engine
// mode changed between runs) is a mismatch like a foreign graph, and so is
// a file of an older format version: version 1 records another function of
// the graph as its fingerprint, and version 2 lacks the partner rows, which
// every cold start would then compute again — a build, once, overwrites
// either. Any failure (unreadable file, corruption, mismatch) falls back to
// building, which overwrites the file; the error classes are counted
// separately so operators can tell a cold directory from a failing disk
// from a corrupted file.
func (s *Server) loadSnapshot(ctx context.Context, key cacheKey) (*repro.Index, error) {
	if key.version != 0 {
		// The disk tier holds only version-0 indexes: snapshot files are
		// fingerprinted against the graph as configured at startup, and
		// mutated versions are cheaper to derive by edit-log replay than
		// to persist (they change with every batch).
		return nil, nil
	}
	start := time.Now()
	reject := func(counter, reason string) (*repro.Index, error) {
		s.reg.Counter(counter).Inc()
		// Rejections pay real latency (read + parse + validate) that the
		// success histogram must not absorb; they get their own.
		s.reg.Histogram("serve.snapshot.reject_ns").Observe(time.Since(start))
		s.logEvent(ctx, slog.LevelWarn, "snapshot_reject",
			slog.String("query_id", queryID(key.graph, key.canonical)),
			slog.String("reason", reason))
		return nil, nil
	}
	data, err := os.ReadFile(s.snapshotPath(key))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil // cold tier: no snapshot yet
	}
	if err != nil {
		// The file is there and the disk will not give it up (permissions,
		// a directory in its place, an I/O error): not a cold tier.
		return reject("serve.snapshot.read_errors", "read: "+err.Error())
	}
	sp := s.reg.StartSpan(ctx, "cache.snapshot_load.parse")
	f, err := snap.Parse(data)
	sp.End()
	if err != nil {
		return reject("serve.snapshot.corrupt", "corrupt: "+err.Error())
	}
	meta, err := snap.ReadMeta(f)
	if err != nil {
		return reject("serve.snapshot.corrupt", "corrupt: "+err.Error())
	}
	if f.Version() != snap.Version {
		return reject("serve.snapshot.mismatch", fmt.Sprintf("format version %d, this server writes %d", f.Version(), snap.Version))
	}
	if meta.Canonical != key.canonical || meta.GraphFingerprint != s.graphFP[key.graph] {
		return reject("serve.snapshot.mismatch", "foreign graph or query")
	}
	ix, err := repro.RestoreIndexSnapshotCtx(ctx, f,
		repro.WithParallelism(s.cfg.Parallelism), repro.WithMetrics(s.reg), repro.WithEngine(s.cfg.Engine))
	if err != nil {
		return reject("serve.snapshot.corrupt", "restore: "+err.Error())
	}
	if want, err := repro.SelectEngine(ix.Graph(), s.cfg.Engine); err != nil || want.Chosen != ix.Engine() {
		return reject("serve.snapshot.mismatch", fmt.Sprintf("holds a %s index, engine mode %q builds %s", ix.Engine(), s.cfg.Engine, want.Chosen))
	}
	d := time.Since(start)
	s.reg.Histogram("serve.snapshot.load_ns").Observe(d)
	s.logEvent(ctx, slog.LevelInfo, "snapshot_load",
		slog.String("query_id", queryID(key.graph, key.canonical)),
		slog.Int64("dur_us", d.Microseconds()),
		slog.Int("bytes", len(data)))
	return ix, nil
}

// writeSnapshot persists a freshly built index for the next cold start.
// Failures are counted and swallowed — the build already succeeded, so
// the request must not fail because the disk tier is unhappy.
func (s *Server) writeSnapshot(ctx context.Context, key cacheKey, ix *repro.Index) bool {
	if key.version != 0 {
		return false // disk tier is version-0 only; see loadSnapshot
	}
	start := time.Now()
	if err := repro.SaveIndexSnapshotObs(ctx, ix, s.snapshotPath(key), s.reg); err != nil {
		s.reg.Counter("serve.snapshot.write_errors").Inc()
		s.logEvent(ctx, slog.LevelWarn, "snapshot_write_failed",
			slog.String("query_id", queryID(key.graph, key.canonical)),
			slog.String("error", err.Error()))
		return false
	}
	d := time.Since(start)
	s.reg.Histogram("serve.snapshot.write_ns").Observe(d)
	s.logEvent(ctx, slog.LevelInfo, "snapshot_write",
		slog.String("query_id", queryID(key.graph, key.canonical)),
		slog.Int64("dur_us", d.Microseconds()))
	return true
}

// migrateIndex is the cache's incremental tier: on a miss for
// (graph, version, query) it looks for a resident index of an older
// retained version of the same graph and advances it by replaying the
// intervening edit batches through Index.ApplyEditsTo — onto the graphs
// Mutate patched, which the index versions then share — which recomputes
// only the structure the edits touched — the n^ε update route the
// mutation layer exists for. A miss (chain broken, replay failed, no
// resident ancestor) falls back to a full build.
func (s *Server) migrateIndex(ctx context.Context, key cacheKey) (*repro.Index, error) {
	gs, ok := s.graphs[key.graph]
	if !ok || key.version == 0 {
		return nil, nil
	}
	qid := queryID(key.graph, key.canonical)
	start := time.Now()
	for v := key.version - 1; v >= 0; v-- {
		old, ok := s.cache.Peek(cacheKey{graph: key.graph, version: v, canonical: key.canonical})
		if !ok {
			continue
		}
		chain, ok := gs.versionsSince(v, key.version)
		if !ok {
			return nil, nil // chain broken: a link left the retention window
		}
		ix, err := old, error(nil)
		for _, gv := range chain {
			if ix, err = ix.ApplyEditsTo(ctx, gv.g, gv.edits); err != nil {
				break
			}
		}
		if err != nil {
			s.logEvent(ctx, slog.LevelWarn, "index_migrate_failed",
				slog.String("graph", key.graph),
				slog.String("query_id", qid),
				slog.Int("from_version", v),
				slog.Int("to_version", key.version),
				slog.String("error", err.Error()))
			return nil, nil // fall back to a full build
		}
		s.logEvent(ctx, slog.LevelInfo, "index_migrate",
			slog.String("graph", key.graph),
			slog.String("query_id", qid),
			slog.Int("from_version", v),
			slog.Int("to_version", key.version),
			slog.Int64("dur_us", time.Since(start).Microseconds()))
		return ix, nil
	}
	return nil, nil
}

// buildIndex is the cache's build-from-scratch function: it resolves the
// key back to the registered query and the pinned graph version and runs
// the context-bounded parallel build.
func (s *Server) buildIndex(ctx context.Context, key cacheKey) (*repro.Index, error) {
	gs, ok := s.graphs[key.graph]
	if !ok {
		return nil, fmt.Errorf("serve: graph %q disappeared", key.graph)
	}
	gv, ok := gs.At(key.version)
	if !ok {
		// The version left the retention window between cursor decode and
		// this flight.
		return nil, &versionGoneError{graph: key.graph, version: key.version}
	}
	s.mu.Lock()
	var q *repro.Query
	// (graph, canonical) identifies at most one entry, so the first hit is the only hit.
	for _, e := range s.queries {
		if e.graph == key.graph && e.canonical == key.canonical {
			q = e.q
			break
		}
	}
	s.mu.Unlock()
	if q == nil {
		return nil, fmt.Errorf("serve: query %q not registered", key.canonical)
	}

	qid := queryID(key.graph, key.canonical)
	start := time.Now()
	ix, err := repro.Build(ctx, gv.g, q,
		repro.WithParallelism(s.cfg.Parallelism), repro.WithMetrics(s.reg), repro.WithEngine(s.cfg.Engine))
	if err != nil {
		s.logEvent(ctx, slog.LevelWarn, "index_build_failed",
			slog.String("graph", key.graph),
			slog.String("query_id", qid),
			slog.Int("version", key.version),
			slog.String("error", err.Error()))
		return nil, err
	}
	s.logEvent(ctx, slog.LevelInfo, "index_build",
		slog.String("graph", key.graph),
		slog.String("query_id", qid),
		slog.Int("version", key.version),
		slog.String("engine", string(ix.Engine())),
		slog.Int64("dur_us", time.Since(start).Microseconds()))
	return ix, nil
}
