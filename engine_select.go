package repro

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/lowdeg"
	"repro/internal/wcol"
)

// EngineKind names an enumeration engine backing an Index.
//
// The library default is EngineCore — the paper's nowhere-dense engine,
// correct on every input. EngineLowDeg is the Durand–Schweikardt–Segoufin
// low-degree engine: the same answering contract with a much cheaper
// linear build, at its best on bounded-degree graphs (its delay degrades
// with the maximum degree, so it is never chosen implicitly for
// high-degree inputs). EngineAuto measures the graph and picks.
type EngineKind string

const (
	// EngineCore forces the general nowhere-dense engine (the default).
	EngineCore EngineKind = "core"
	// EngineLowDeg forces the low-degree engine regardless of the graph's
	// shape. Correct on any input, but delay bounds assume low degree.
	EngineLowDeg EngineKind = "lowdeg"
	// EngineAuto routes on cheap sparsity estimates: the graph's maximum
	// degree and its degeneracy (computed in O(n+m) by wcol's bucket
	// queue). Low-degree graphs get EngineLowDeg, everything else the
	// core engine.
	EngineAuto EngineKind = "auto"
)

// Auto-selection thresholds: EngineAuto picks the low-degree engine only
// when MaxDegree ≤ AutoMaxDegree (the per-vertex ball size d^R stays
// small) and Degeneracy ≤ AutoMaxDegeneracy (no dense core hides inside a
// low-degree skin). KingGrid — degree 8, degeneracy 4 — is the densest
// class the paper's experiments treat as a bounded-degree input, so the
// limits sit exactly there.
const (
	AutoMaxDegree     = 8
	AutoMaxDegeneracy = 4
)

// engines lists the buildable kinds: the constructor of each and the core
// locality its engine runs on, which is how a snapshot names it.
var engines = map[EngineKind]struct {
	locality   string
	preprocess func(*Graph, *core.LocalQuery, core.Options) (*core.Engine, error)
}{
	EngineCore:   {core.LocCover, core.Preprocess},
	EngineLowDeg: {core.LocBalls, lowdeg.Preprocess},
}

// kindOn returns the kind whose engine runs on the locality.
func kindOn(locality string) EngineKind {
	for kind, def := range engines {
		if def.locality == locality {
			return kind
		}
	}
	panic(fmt.Sprintf("repro: no engine kind runs on locality %q", locality))
}

// Selection records an engine-routing decision: what was asked, what was
// chosen, and the estimates the choice was based on (−1 when the decision
// did not need one: a forced kind, or a maximum degree that settles it —
// above DegreeLimit, or at most DegeneracyLimit, which bounds the
// degeneracy too). The serving layer surfaces it in /v1/stats.
//
// MaxDegree is the graph's maximum degree when it is at most DegreeLimit,
// or when the graph knew it already (counted, or carried over a write).
// Otherwise it is the degree of the first vertex by id above the limit: a
// lower bound, which settles the choice without counting the other rows —
// the case of a write that took an edge from the one vertex of maximum
// degree.
type Selection struct {
	Requested EngineKind `json:"requested"` // the configured kind ("" means the core default)
	Chosen    EngineKind `json:"chosen"`    // the engine actually built

	MaxDegree       int `json:"max_degree"`       // maximum degree, a lower bound of it above DegreeLimit, or −1
	Degeneracy      int `json:"degeneracy"`       // measured degeneracy, or −1
	DegreeLimit     int `json:"degree_limit"`     // AutoMaxDegree at decision time
	DegeneracyLimit int `json:"degeneracy_limit"` // AutoMaxDegeneracy at decision time
}

// SelectEngine resolves the requested kind against the graph. The empty
// kind keeps the library's historical default (the core engine) so that
// existing callers — and every persisted snapshot — are unaffected;
// routing is opt-in via EngineAuto.
func SelectEngine(g *Graph, req EngineKind) (Selection, error) {
	sel := Selection{
		Requested:       req,
		MaxDegree:       -1,
		Degeneracy:      -1,
		DegreeLimit:     AutoMaxDegree,
		DegeneracyLimit: AutoMaxDegeneracy,
	}
	switch req {
	case "", EngineCore:
		sel.Chosen = EngineCore
		return sel, nil
	case EngineLowDeg:
		sel.Chosen = EngineLowDeg
		return sel, nil
	case EngineAuto:
		var above bool
		if sel.MaxDegree, above = g.DegreeAbove(AutoMaxDegree); above {
			// Degeneracy cannot rescue a high-degree graph: the lowdeg
			// ball structure is already oversized. Skip the second scan.
			sel.Chosen = EngineCore
			return sel, nil
		}
		if sel.MaxDegree <= AutoMaxDegeneracy {
			// Nor can it condemn this one: every subgraph has a vertex of
			// degree ≤ MaxDegree. ApplyEdits re-selects on every version,
			// and this is the case it meets on bounded-degree graphs.
			sel.Chosen = EngineLowDeg
			return sel, nil
		}
		sel.Degeneracy = wcol.DegeneracyFast(g)
		if sel.Degeneracy > AutoMaxDegeneracy {
			sel.Chosen = EngineCore
			return sel, nil
		}
		sel.Chosen = EngineLowDeg
		return sel, nil
	default:
		return sel, fmt.Errorf("repro: unknown engine kind %q (want %q, %q or %q)",
			req, EngineCore, EngineLowDeg, EngineAuto)
	}
}

// Engine returns the kind of engine backing this index.
func (ix *Index) Engine() EngineKind { return ix.sel.Chosen }

// Selection returns the engine-routing decision recorded for this index
// version: made by Build, made again by ApplyEdits under EngineAuto, and for
// a restored snapshot whatever engine the file holds.
func (ix *Index) Selection() Selection { return ix.sel }
