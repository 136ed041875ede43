package lint

// HotPathTrans returns the whole-program successor of the PR 5 hotpath
// analyzer: instead of checking only the functions annotated
// `//fod:hotpath`, it computes the full call closure of every annotated
// root over the program call graph and applies the hot-path body rules
// (no fmt / clock reads / logging / tracing / map or chan allocation /
// string<->[]byte conversion / escaping append / loop-capturing closure;
// see hotpath.go) to every member — the constant-delay bound of
// Theorem 2.3 is a property of the whole dynamic extent of NextGeq/Test,
// not of the annotated frame alone.
//
// Closure construction:
//
//   - edges follow static calls, interface dispatch (every implementing
//     method is a candidate) and func-value calls (every address-taken
//     signature-compatible function is a candidate);
//   - a call annotated `//fod:coldpath` (on or above the call line), or a
//     callee whose doc comment carries `//fod:coldpath`, is a guarded
//     cold path and is not traversed — the annotation carries the
//     justification (e.g. "once per engine, behind a sync.Once");
//   - calls inside panic(...) arguments are automatically cold: the
//     success path the delay bound covers never executes them;
//   - a func-value call with no address-taken candidate anywhere in the
//     module is reported: the analyzer cannot see the callee, so the
//     0-alloc claim would rest on faith. Devirtualize it or annotate
//     `//fod:coldpath`.
//
// Diagnostics in unannotated closure members carry the call chain from
// the nearest annotated root, so a finding three calls deep is still
// actionable.
func HotPathTrans() *Analyzer {
	return &Analyzer{
		Name:       "hotpath-transitive",
		Doc:        "the full call closure of //fod:hotpath functions stays allocation- and clock-free",
		RunProgram: runHotPathTrans,
	}
}

func runHotPathTrans(pp *ProgramPass) {
	prog := pp.Prog
	visited := map[*FuncNode]bool{}
	parent := map[*FuncNode]*FuncNode{}
	var queue []*FuncNode
	for _, n := range prog.Nodes {
		if funcHasAnnotation(n.Decl, "fod:hotpath") {
			visited[n] = true
			queue = append(queue, n)
		}
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		pass := pp.PackagePass(n.Pkg)

		bodyPass := pass
		root := funcHasAnnotation(n.Decl, "fod:hotpath")
		if !root {
			bodyPass = pp.decoratedPass(n.Pkg, hotChainSuffix(parent, n))
		}
		checkHotFunc(bodyPass, n.Decl)

		cold := panicArgCalls(pass, n.Decl.Body)
		for _, site := range n.Calls {
			if cold[site.Call] || pass.hasAnnotation(n.File, site.Call, "fod:coldpath") {
				continue
			}
			if site.Dynamic && len(site.Callees) == 0 {
				bodyPass.Report(site.Pos,
					"%s: call through a func value with no visible target on the hot path (devirtualize or annotate //fod:coldpath)",
					n.Decl.Name.Name)
				continue
			}
			for _, callee := range site.Callees {
				if visited[callee] || funcHasAnnotation(callee.Decl, "fod:coldpath") {
					continue
				}
				visited[callee] = true
				parent[callee] = n
				queue = append(queue, callee)
			}
		}
	}
}

// HotClosure computes the //fod:hotpath call closure without reporting
// anything: same roots, same edges, same coldpath/panic-argument pruning
// as the analyzer traversal above. TestHotClosureMatchesAllocGuards uses
// it to cross-check closure membership against the functions the
// AllocsPerRun tests pin at 0 allocs/op — the static and dynamic halves of the
// Theorem 2.3 delay bound must agree on what "the hot path" is.
func HotClosure(prog *Program) map[*FuncNode]bool {
	passes := map[*Package]*Pass{}
	passFor := func(pkg *Package) *Pass {
		if p, ok := passes[pkg]; ok {
			return p
		}
		p := &Pass{Fset: pkg.Fset, Files: pkg.Syntax, Pkg: pkg.Types, Info: pkg.Info}
		passes[pkg] = p
		return p
	}
	visited := map[*FuncNode]bool{}
	var queue []*FuncNode
	for _, n := range prog.Nodes {
		if funcHasAnnotation(n.Decl, "fod:hotpath") {
			visited[n] = true
			queue = append(queue, n)
		}
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		pass := passFor(n.Pkg)
		cold := panicArgCalls(pass, n.Decl.Body)
		for _, site := range n.Calls {
			if cold[site.Call] || pass.hasAnnotation(n.File, site.Call, "fod:coldpath") {
				continue
			}
			for _, callee := range site.Callees {
				if visited[callee] || funcHasAnnotation(callee.Decl, "fod:coldpath") {
					continue
				}
				visited[callee] = true
				queue = append(queue, callee)
			}
		}
	}
	return visited
}

// hotChainSuffix renders the call chain from the nearest //fod:hotpath
// root down to n, e.g. " [hot closure: core.(Engine).nextGeq → core.(Engine).localEval]".
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
	s := " [hot closure: "
	for i := len(chain) - 1; i >= 0; i-- {
		s += chain[i]
		if i > 0 {
			s += " → "
		}
	}
	return s + "]"
}
