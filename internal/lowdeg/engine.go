// Package lowdeg is the public name of the bounded-degree engine of Durand,
// Schweikardt & Segoufin, "Enumerating Answers to First-Order Queries over
// Databases of Low Degree" (PODS 2014).
//
// It is not a second engine: the normal form, the starter lists, the
// lexicographic backtracking and the counting are internal/core's, run
// over core's ball locality instead of the cover locality. On a graph of
// maximum degree d every N_r(v) has at most d^r + 1 vertices, so the
// machinery that tames unbounded neighborhoods — cover, R-kernels, skip
// pointers, distance index — is replaced by two CSR arrays of sorted balls
// (radius R and R(k−1)): a distance test is a binary search in a row, and
// Case I is a forward scan of the starter list that skips at most
// (k−1)·d^R rejected entries. See locality in internal/core.
package lowdeg

import (
	"repro/internal/core"
	"repro/internal/graph"
)

// Engine and Options are core's; a lowdeg engine differs from a core one
// only in the locality it was built over.
type (
	Engine  = core.Engine
	Options = core.Options
)

// Preprocess builds the engine over the ball locality: cost
// O(n · d^{R(k−1)} · eval), linear for constant degree.
func Preprocess(g *graph.Graph, q *core.LocalQuery, opt Options) (*Engine, error) {
	return core.PreprocessBalls(g, q, opt)
}
