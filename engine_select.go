package repro

import (
	"fmt"

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

// Selection records an engine-routing decision: what was asked, what was
// chosen, and the estimates the choice was based on (−1 when a forced
// kind made measuring unnecessary). The serving layer surfaces it in
// /v1/stats.
type Selection struct {
	Requested EngineKind `json:"requested"` // the configured kind ("" means the core default)
	Chosen    EngineKind `json:"chosen"`    // the engine actually built

	MaxDegree  int `json:"max_degree"`  // measured maximum degree, or −1
	Degeneracy int `json:"degeneracy"`  // measured degeneracy, or −1
	DegreeLimit     int `json:"degree_limit"`     // AutoMaxDegree at decision time
	DegeneracyLimit int `json:"degeneracy_limit"` // AutoMaxDegeneracy at decision time
}

// selectEngine resolves the requested kind against the graph. The empty
// kind keeps the library's historical default (the core engine) so that
// existing callers — and every persisted snapshot — are unaffected;
// routing is opt-in via EngineAuto.
func selectEngine(g *Graph, req EngineKind) (Selection, error) {
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
		sel.MaxDegree = g.MaxDegree()
		if sel.MaxDegree > AutoMaxDegree {
			// Degeneracy cannot rescue a high-degree graph: the lowdeg
			// ball structure is already oversized. Skip the second scan.
			sel.Chosen = EngineCore
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

// Selection returns the engine-routing decision recorded when the index
// was built (a forced core choice for restored snapshots).
func (ix *Index) Selection() Selection { return ix.sel }
