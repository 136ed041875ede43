package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// mapOrderScope lists the import-path fragments of the packages whose
// computations must be worker-count- and run-to-run-deterministic: the
// preprocessing pipeline guarantees a parallel build byte-identical to the
// sequential one, and every structure the answering phase reads (starter
// lists, skip pointers, covers, distance indexes) is compared across
// runs by the differential test harness. internal/graph joined the scope
// with the mutation layer: Patch promises a patched graph byte-identical
// to rebuilding the same edge and color sets, so its folds over edit
// deltas are determinism-bearing too.
// internal/serve and internal/snap joined in v2: the serve layer
// promises one deterministic response envelope per request (stats and
// query listings must not shuffle between calls), and the snapshot codec
// promises byte-identical files for identical indexes — any map fold on
// either path must be sorted or provably order-free.
var mapOrderScope = []string{
	"internal/core",
	"internal/cover",
	"internal/dist",
	"internal/graph",
	"internal/serve",
	"internal/skip",
	"internal/snap",
	"internal/store",
}

// MapOrder returns the analyzer protecting the determinism guarantee:
// `range` over a map iterates in randomized order, so inside the scoped
// packages every map range must either be rewritten over sorted keys or
// carry a `//fod:sorted` annotation on (or directly above) the range
// statement, asserting that the keys are sorted immediately after
// collection or that the fold is provably order-free (commutative min /
// max / set-union).
func MapOrder() *Analyzer {
	return &Analyzer{
		Name: "maporder",
		Doc:  "no unordered map iteration in deterministic packages",
		Run:  runMapOrder,
	}
}

func inMapOrderScope(pkgPath string) bool {
	for _, frag := range mapOrderScope {
		if strings.Contains(pkgPath, frag) {
			return true
		}
	}
	return false
}

func runMapOrder(pass *Pass) {
	if !inMapOrderScope(pass.Pkg.Path()) {
		return
	}
	for _, file := range pass.Files {
		file := file
		ast.Inspect(file, func(n ast.Node) bool {
			rng, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			t := pass.Info.TypeOf(rng.X)
			if t == nil {
				return true
			}
			if _, isMap := t.Underlying().(*types.Map); !isMap {
				return true
			}
			if pass.hasAnnotation(file, rng, "fod:sorted") {
				return true
			}
			pass.Report(rng.Pos(),
				"unordered range over map %s in deterministic package %s (sort the keys or annotate //fod:sorted)",
				types.TypeString(t, types.RelativeTo(pass.Pkg)), pass.Pkg.Path())
			return true
		})
	}
}
