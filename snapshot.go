package repro

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/snap"
)

// WriteSnapshot serializes the fully built index — graph, query metadata,
// and every preprocessed structure: the starter lists and, for a core
// index, neighborhood cover, kernels, distance recursion and skip
// pointers, for a lowdeg index the two arrays of sorted balls — into the
// immutable snapshot format of internal/snap. The file names which of the
// two it holds. Loading the result with LoadIndexSnapshot skips all of the
// preprocessing and yields an index of the same engine that answers
// byte-identically.
//
// The output is deterministic: the same graph, query and engine always
// produce the same bytes — whether the index was built or reached through
// ApplyEdits — so snapshots can be content-addressed and compared.
func (ix *Index) WriteSnapshot(w io.Writer) error {
	return ix.writeSnapshot(context.Background(), w, nil)
}

// writeSnapshot is WriteSnapshot with encode instrumentation: section
// timings become "snap.encode" spans in m — enrolled in the request trace
// when ctx carries one (obs.ContextWithSpan) — so a serving layer can see
// where a snapshot write-back spends its time.
func (ix *Index) writeSnapshot(ctx context.Context, w io.Writer, m *Metrics) error {
	if ix.q == nil {
		return fmt.Errorf("repro: index has no query attached; only indexes from Build or a snapshot loader can be snapshotted")
	}
	lq, err := ix.q.compile()
	if err != nil {
		return err
	}
	vars := make([]string, len(ix.q.Vars))
	for i, v := range ix.q.Vars {
		vars[i] = string(v)
	}
	meta := snap.Meta{
		Query:       ix.q.Phi.String(),
		Vars:        vars,
		Canonical:   ix.q.Canonical(),
		K:           lq.K,
		R:           lq.R,
		LocalRadius: lq.LocalRadius,
		Guarded:     lq.Guarded,
	}
	_, err = snap.WriteTraced(ctx, w, ix.Graph(), meta, ix.eng.SnapshotParts(), m)
	return err
}

// SaveIndexSnapshot writes the snapshot atomically to path: the bytes go
// to a temporary file in the same directory first, which is renamed into
// place only after a successful write. Of the options only WithMetrics
// matters here (encode spans).
func SaveIndexSnapshot(ix *Index, path string, opts ...Option) error {
	return SaveIndexSnapshotObs(context.Background(), ix, path, resolveOptions(opts).Metrics)
}

// SaveIndexSnapshotObs is SaveIndexSnapshot with a context: the encode
// spans recorded into m are enrolled in the request trace when ctx carries
// one (obs.ContextWithSpan).
func SaveIndexSnapshotObs(ctx context.Context, ix *Index, path string, m *Metrics) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".snap-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := ix.writeSnapshot(ctx, tmp, m); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// ReadIndexSnapshot reconstructs an index from snapshot bytes. The query
// is re-parsed and re-compiled from the embedded source (the compiler is
// deterministic, so the serialized engine parts line up exactly), and
// every structural invariant is revalidated — corrupted input yields an
// error wrapping one of internal/snap's typed ones, never a panic. The
// returned index answers byte-identically to the freshly built one the
// snapshot was taken from, on the engine the file names. WithParallelism
// bounds the restore-side derivations; WithMetrics instruments the index;
// WithEngine is recorded as what was requested (Index.Selection), so an
// auto index keeps re-examining its graph when it is edited.
func ReadIndexSnapshot(data []byte, opts ...Option) (*Index, error) {
	return ReadIndexSnapshotCtx(context.Background(), data, opts...)
}

// ReadIndexSnapshotCtx is ReadIndexSnapshot with a context: decode and
// restore record "snap.decode"/"restore" span trees into the WithMetrics
// registry, and when ctx carries a request trace (obs.ContextWithSpan)
// they land in it — this is how a serve-layer snapshot load shows up phase
// by phase in /debug/traces.
func ReadIndexSnapshotCtx(ctx context.Context, data []byte, opts ...Option) (*Index, error) {
	o := resolveOptions(opts)
	s, err := snap.ReadTraced(ctx, data, o.Metrics)
	if err != nil {
		return nil, err
	}
	return restoreSnapshotCtx(ctx, s, o)
}

// RestoreIndexSnapshotCtx is ReadIndexSnapshotCtx for a caller that has
// already run snap.Parse over the bytes — the serve disk tier, which reads
// the file's metadata before it decides to restore. Parse verified every
// checksum; this decodes and restores without reading the file again.
func RestoreIndexSnapshotCtx(ctx context.Context, f *snap.File, opts ...Option) (*Index, error) {
	o := resolveOptions(opts)
	s, err := snap.DecodeTraced(ctx, f, o.Metrics)
	if err != nil {
		return nil, err
	}
	return restoreSnapshotCtx(ctx, s, o)
}

// LoadIndexSnapshot is ReadIndexSnapshot over the contents of path.
func LoadIndexSnapshot(path string, opts ...Option) (*Index, error) {
	s, err := snap.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return restoreSnapshotCtx(context.Background(), s, resolveOptions(opts))
}

func restoreSnapshotCtx(ctx context.Context, s *snap.Snapshot, opt IndexOptions) (*Index, error) {
	q, err := ParseQuery(s.Meta.Query, s.Meta.Vars...)
	if err != nil {
		return nil, fmt.Errorf("repro: snapshot query does not parse: %w", err)
	}
	if got := q.Canonical(); got != s.Meta.Canonical {
		return nil, fmt.Errorf("repro: snapshot query is not canonical: %q reprints as %q", s.Meta.Canonical, got)
	}
	lq, err := q.compile()
	if err != nil {
		return nil, fmt.Errorf("repro: snapshot query does not compile: %w", err)
	}
	if lq.K != s.Meta.K || lq.R != s.Meta.R || lq.LocalRadius != s.Meta.LocalRadius || lq.Guarded != s.Meta.Guarded {
		return nil, fmt.Errorf("repro: snapshot query compiled to (k=%d r=%d ρ=%d guarded=%v), metadata says (k=%d r=%d ρ=%d guarded=%v)",
			lq.K, lq.R, lq.LocalRadius, lq.Guarded, s.Meta.K, s.Meta.R, s.Meta.LocalRadius, s.Meta.Guarded)
	}
	e, err := core.RestoreEngine(s.Graph, lq, s.Parts, core.Options{Parallelism: opt.Parallelism, Obs: opt.Metrics, Ctx: ctx})
	if err != nil {
		return nil, fmt.Errorf("%w: %v", snap.ErrCorrupt, err)
	}
	// The file decides the engine; nothing was measured to get it.
	sel := Selection{
		Requested: opt.Engine, Chosen: kindOn(e.Locality()),
		MaxDegree: -1, Degeneracy: -1,
		DegreeLimit: AutoMaxDegree, DegeneracyLimit: AutoMaxDegeneracy,
	}
	return &Index{eng: e, sel: sel, k: lq.K, q: q}, nil
}

// SnapshotGraph returns the graph embedded in snapshot bytes without
// restoring the index.
func SnapshotGraph(data []byte) (*Graph, error) {
	s, err := snap.Read(data)
	if err != nil {
		return nil, err
	}
	return s.Graph, nil
}
