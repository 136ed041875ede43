package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro"
)

// graphState is one served graph's MVCC write side: an immutable chain of
// graph versions, mutated through POST /v1/mutate. The server versions
// *graphs* (shared by every query registered against them), not indexes,
// and keys its index cache by (graph, version, query), so each index
// snapshot is immutable and version-pinned cursors keep reading a
// consistent stream while the head moves on.
//
// Writers are serialized per graph; readers resolve versions wait-free off
// the head pointer and only take the lock for the retained ring. A bounded
// window of past versions stays resolvable so in-flight cursors survive a
// few mutations; beyond it, At reports gone and the API answers 410
// version_gone.
type graphState struct {
	name string
	head atomic.Pointer[graphVersion]

	mu       sync.Mutex      // serializes Mutate; guards retained
	retained []*graphVersion // past versions, oldest first (excludes head)
	retain   int
}

// graphVersion is one immutable point in a graph's edit history. edits is
// the batch that produced this version from its predecessor (nil for
// version 0): the index cache replays it, onto g, to migrate a resident
// index forward instead of rebuilding — the graph is patched here and
// nowhere else, and an index of this version answers over g itself.
type graphVersion struct {
	g       *repro.Graph
	version int
	edits   []repro.Edit
}

func newGraphState(name string, g *repro.Graph, retain int) *graphState {
	gs := &graphState{name: name, retain: retain}
	gs.head.Store(&graphVersion{g: g, version: 0})
	return gs
}

// Head returns the current version, wait-free.
func (gs *graphState) Head() *graphVersion { return gs.head.Load() }

// At resolves a version number: the head or one of the retained past
// versions. ok=false means never published or garbage-collected.
func (gs *graphState) At(version int) (*graphVersion, bool) {
	if head := gs.head.Load(); head.version == version {
		return head, true
	}
	gs.mu.Lock()
	defer gs.mu.Unlock()
	// Re-check the head under the lock (a writer may have published since),
	// then the retention ring.
	if head := gs.head.Load(); head.version == version {
		return head, true
	}
	for _, gv := range gs.retained {
		if gv.version == version {
			return gv, true
		}
	}
	return nil, false
}

// versionsSince returns the versions leading from version `from`
// (exclusive) to version `to` (inclusive), in order: each holds the batch
// that produced it and the graph it produced. ok=false when any link of
// the chain has left the retention window.
func (gs *graphState) versionsSince(from, to int) ([]*graphVersion, bool) {
	if from >= to {
		return nil, false
	}
	chain := make([]*graphVersion, 0, to-from)
	for v := from + 1; v <= to; v++ {
		gv, ok := gs.At(v)
		if !ok {
			return nil, false
		}
		chain = append(chain, gv)
	}
	return chain, true
}

// Mutate validates and applies the edit batch, publishing a new head
// version. A batch that nets out to the identity publishes nothing and
// returns the unchanged head with noop=true.
func (gs *graphState) Mutate(edits []repro.Edit) (gv *graphVersion, noop bool, err error) {
	gs.mu.Lock()
	defer gs.mu.Unlock()
	cur := gs.head.Load()
	for _, e := range edits {
		if err := e.Validate(cur.g); err != nil {
			return nil, false, err
		}
	}
	if !editsEffective(cur.g, edits) {
		return cur, true, nil
	}
	gNew, err := repro.PatchGraph(cur.g, edits)
	if err != nil {
		return nil, false, err
	}
	next := &graphVersion{
		g:       gNew,
		version: cur.version + 1,
		edits:   append([]repro.Edit(nil), edits...),
	}
	gs.retained = append(gs.retained, cur)
	if len(gs.retained) > gs.retain {
		gs.retained = gs.retained[1:]
	}
	gs.head.Store(next)
	return next, false, nil
}

// Retained lists the versions currently resolvable through At, oldest
// first, head last.
func (gs *graphState) Retained() []int {
	gs.mu.Lock()
	defer gs.mu.Unlock()
	out := make([]int, 0, len(gs.retained)+1)
	for _, gv := range gs.retained {
		out = append(out, gv.version)
	}
	return append(out, gs.head.Load().version)
}

// editsEffective reports whether the batch changes the graph at all:
// later edits win per edge/color key, and a net intent that matches the
// present state is a no-op (mirroring the facade, where an identity batch
// returns the receiver index without a version bump).
func editsEffective(g *repro.Graph, edits []repro.Edit) bool {
	type key struct{ kind, a, b int }
	final := make(map[key]bool) // desired presence after the batch
	for _, e := range edits {
		switch e.Op {
		case repro.OpAddEdge, repro.OpRemoveEdge:
			if e.U == e.V {
				continue
			}
			u, v := e.U, e.V
			if u > v {
				u, v = v, u
			}
			final[key{0, u, v}] = e.Op == repro.OpAddEdge
		default:
			final[key{1, e.U, e.Color}] = e.Op == repro.OpAddColor
		}
	}
	for k, want := range final {
		have := false
		if k.kind == 0 {
			have = g.HasEdge(k.a, k.b)
		} else {
			have = g.HasColor(k.a, k.b)
		}
		if have != want {
			return true
		}
	}
	return false
}

// versionGoneError marks an index acquisition that failed because the
// requested graph version left the retention window between cursor decode
// and build; writeCacheErr maps it to 410 version_gone.
type versionGoneError struct {
	graph   string
	version int
}

func (e *versionGoneError) Error() string {
	return fmt.Sprintf("version %d of graph %q is no longer retained", e.version, e.graph)
}

// headIndex acquires entry's index at its graph's head. A head is resolved
// and then built (or fetched); when a write publishes past it and pushes it
// out of the retention window in between, the build reports it gone, and a
// request that asked for no version in particular is answered at the new
// head instead of with 410.
func (s *Server) headIndex(ctx context.Context, entry *queryEntry) (*graphVersion, *repro.Index, error) {
	gs := s.graphs[entry.graph]
	gv := gs.Head()
	for {
		ix, _, err := s.cache.Get(ctx, cacheKey{graph: entry.graph, version: gv.version, canonical: entry.canonical})
		var gone *versionGoneError
		if !errors.As(err, &gone) || gs.Head() == gv {
			return gv, ix, err
		}
		gv = gs.Head()
	}
}
