package lint

import "strings"

// The closure walk. Its edges follow static calls, interface dispatch
// (every implementing method is a candidate) and func-value calls (every
// address-taken signature-compatible function is a candidate); see
// callgraph.go. Two kinds of call are not traversed:
//
//   - a call annotated `//fod:coldpath` (on or above the call line), or a
//     callee whose doc comment carries `//fod:coldpath`: a guarded cold
//     path, and the annotation carries the justification (e.g. "once per
//     engine, behind a sync.Once");
//   - a call inside panic(...) arguments: the success path the delay
//     bound covers never executes it.
//
// Check holds every member of the closure to the body rules of
// hotpath.go, and reports a func-value call with no address-taken
// candidate anywhere in the module: the walk cannot see its callee, so
// the 0-alloc claim would rest on faith. Devirtualize it or annotate
// `//fod:coldpath`.

// HotClosure computes the //fod:hotpath call closure: the roots are the
// functions whose doc comment carries //fod:hotpath, and the edges are
// the call sites hotSites keeps, minus callees whose doc comment carries
// //fod:coldpath. It maps each member to the caller it was first reached
// from, and each root to nil. TestHotClosureMatchesAllocGuards uses it to
// cross-check membership against the functions the AllocsPerRun tests
// pin at 0 allocs/op — the static and dynamic halves of the Theorem 2.3
// delay bound must agree on what "the hot path" is.
func HotClosure(prog *Program) map[*FuncNode]*FuncNode {
	parent := map[*FuncNode]*FuncNode{}
	var queue []*FuncNode
	for _, n := range prog.Nodes {
		if funcHasAnnotation(n.Decl, "fod:hotpath") {
			parent[n] = nil
			queue = append(queue, n)
		}
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, site := range hotSites(n) {
			for _, callee := range site.Callees {
				if _, seen := parent[callee]; seen || funcHasAnnotation(callee.Decl, "fod:coldpath") {
					continue
				}
				parent[callee] = n
				queue = append(queue, callee)
			}
		}
	}
	return parent
}

// hotSites returns the call sites of n that stay on the hot path: all but
// those annotated //fod:coldpath (on or above the call line) and those
// nested in the arguments of panic(...), which the success path the
// delay bound covers never executes.
func hotSites(n *FuncNode) []*CallSite {
	cold := panicArgCalls(n.Pkg.Info, n.Decl.Body)
	coldLines := directiveLines(n.Pkg.Fset, n.File, "fod:coldpath")
	var sites []*CallSite
	for _, site := range n.Calls {
		line := n.Pkg.Fset.Position(site.Pos).Line
		if !cold[site.Call] && !coldLines[line] && !coldLines[line-1] {
			sites = append(sites, site)
		}
	}
	return sites
}

// hotChainSuffix renders the call chain from the root n was reached from
// down to n, e.g. " [hot closure: core.(Engine).nextGeq → core.(Engine).localEval]".
func hotChainSuffix(parent map[*FuncNode]*FuncNode, n *FuncNode) string {
	var chain []string
	for at := n; at != nil; at = parent[at] {
		chain = append(chain, at.Name())
		if len(chain) > 6 {
			chain = append(chain, "…")
			break
		}
	}
	// Reverse: root first.
	for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
		chain[i], chain[j] = chain[j], chain[i]
	}
	return " [hot closure: " + strings.Join(chain, " → ") + "]"
}
