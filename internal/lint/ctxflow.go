package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// CtxFlow returns the interprocedural context-propagation analyzer for
// the request path. Roots are the HTTP handlers of internal/serve (any
// function taking a *http.Request); edges follow the program call graph.
// Three rules:
//
//  1. context.Background() / context.TODO() must not appear in
//     internal/serve at all, nor in any handler-reachable function of
//     the engine layers (repro, internal/core, internal/snap): a
//     detached context silently severs the request deadline, so a client
//     that gave up keeps burning a worker. The one idiomatic exception
//     is nil-defaulting —
//     `if ctx == nil { ctx = context.Background() }` — which only fires
//     for callers that opted out; `//fod:ctxok` (with a justification)
//     acknowledges a deliberate detachment such as a lifecycle context.
//
//  2. A handler-reachable function in internal/serve must not block
//     without a cancellation path: channel sends/receives outside a
//     select, and selects with neither a `default` nor a ctx.Done()
//     case, wait forever when the peer is gone even though the request
//     context was cancelled long ago.
//
//  3. An exported, handler-reachable function of the engine layers
//     (repro, internal/core) that drives the enumeration machinery
//     (reaches a //fod:hotpath function) through a loop but accepts no
//     context cannot be cancelled mid-enumeration —
//     on a large graph that is an unbounded amount of work per request.
//     Thread a ctx with a periodic checkpoint, or annotate `//fod:ctxok`
//     when the caller's own loop bounds the work (e.g. a yield that can
//     stop the enumeration).
func CtxFlow() *Analyzer {
	return &Analyzer{
		Name:       "ctxflow",
		Doc:        "request-path functions thread ctx: no detached contexts or uncancellable blocking/loops",
		RunProgram: runCtxFlow,
	}
}

// ctxEngineScope is where rule 1 applies beyond internal/serve, and rule
// 3's report scope (minus snap, which has no enumeration loops).
var ctxEngineScope = []string{"internal/core", "internal/snap"}

func runCtxFlow(pp *ProgramPass) {
	prog := pp.Prog

	var roots []*FuncNode
	for _, n := range prog.Nodes {
		if inServeScope(n.Pkg.PkgPath) && takesHTTPRequest(n) {
			roots = append(roots, n)
		}
	}
	reachable := reach(roots)
	hotReaching := reachesHotPath(prog)

	for _, n := range prog.Nodes {
		serve := inServeScope(n.Pkg.PkgPath)
		if serve || (reachable[n] && (isModuleRoot(n.Pkg.PkgPath) || inAnyScope(n.Pkg.PkgPath, ctxEngineScope))) {
			checkDetachedContext(pp, n)
		}
		if serve && reachable[n] {
			checkBlocking(pp, n)
		}
		if reachable[n] && hotReaching[n] &&
			(isModuleRoot(n.Pkg.PkgPath) || inAnyScope(n.Pkg.PkgPath, []string{"internal/core"})) {
			checkUncancellableLoop(pp, n)
		}
	}
}

func inServeScope(pkgPath string) bool {
	return strings.Contains(pkgPath, "internal/serve")
}

func inAnyScope(pkgPath string, frags []string) bool {
	for _, f := range frags {
		if strings.Contains(pkgPath, f) {
			return true
		}
	}
	return false
}

// isModuleRoot matches the repro facade package (the module root, whose
// import path has no slash) and its testdata stand-ins (".../reproroot").
func isModuleRoot(pkgPath string) bool {
	return !strings.Contains(pkgPath, "/") || strings.HasSuffix(pkgPath, "/reproroot")
}

// takesHTTPRequest reports whether any parameter is *net/http.Request.
func takesHTTPRequest(n *FuncNode) bool {
	sig := n.Obj.Type().(*types.Signature)
	for i := 0; i < sig.Params().Len(); i++ {
		t := sig.Params().At(i).Type()
		p, ok := t.(*types.Pointer)
		if !ok {
			continue
		}
		named, ok := p.Elem().(*types.Named)
		if !ok {
			continue
		}
		o := named.Obj()
		if o.Name() == "Request" && o.Pkg() != nil &&
			(o.Pkg().Path() == "net/http" || strings.HasSuffix(o.Pkg().Path(), "/http")) {
			return true
		}
	}
	return false
}

// reach computes forward reachability over call edges.
func reach(roots []*FuncNode) map[*FuncNode]bool {
	seen := map[*FuncNode]bool{}
	queue := append([]*FuncNode(nil), roots...)
	for _, r := range roots {
		seen[r] = true
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, site := range n.Calls {
			for _, callee := range site.Callees {
				if !seen[callee] {
					seen[callee] = true
					queue = append(queue, callee)
				}
			}
		}
	}
	return seen
}

// reachesHotPath computes the set of nodes from which some //fod:hotpath
// function is reachable (reverse BFS from the annotated roots).
func reachesHotPath(prog *Program) map[*FuncNode]bool {
	callers := map[*FuncNode][]*FuncNode{}
	for _, n := range prog.Nodes {
		for _, site := range n.Calls {
			for _, callee := range site.Callees {
				callers[callee] = append(callers[callee], n)
			}
		}
	}
	seen := map[*FuncNode]bool{}
	var queue []*FuncNode
	for _, n := range prog.Nodes {
		if funcHasAnnotation(n.Decl, "fod:hotpath") {
			seen[n] = true
			queue = append(queue, n)
		}
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, c := range callers[n] {
			if !seen[c] {
				seen[c] = true
				queue = append(queue, c)
			}
		}
	}
	return seen
}

// checkDetachedContext implements rule 1 for one function.
func checkDetachedContext(pp *ProgramPass, n *FuncNode) {
	pass := pp.PackagePass(n.Pkg)
	nilDefaults := nilDefaultRegions(pass, n.Decl.Body)
	ast.Inspect(n.Decl.Body, func(nd ast.Node) bool {
		call, ok := nd.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkg := packageOf(pass, sel.X)
		if pkg == nil || pkg.Imported().Path() != "context" {
			return true
		}
		if sel.Sel.Name != "Background" && sel.Sel.Name != "TODO" {
			return true
		}
		if sel.Sel.Name == "Background" {
			for _, r := range nilDefaults {
				if call.Pos() >= r.lo && call.Pos() <= r.hi {
					return true
				}
			}
		}
		if pass.hasAnnotation(n.File, call, "fod:ctxok") {
			return true
		}
		pp.Report(n.Pkg, call.Pos(),
			"context.%s() in request-path function %s severs the request deadline (thread the caller's ctx, or annotate //fod:ctxok with the reason)",
			sel.Sel.Name, n.Decl.Name.Name)
		return true
	})
}

type ctxPosRange struct{ lo, hi token.Pos }

// nilDefaultRegions finds the bodies of `if ctx == nil { ... }` guards —
// the one place a detached Background() is the documented default.
func nilDefaultRegions(pass *Pass, body *ast.BlockStmt) []ctxPosRange {
	var regions []ctxPosRange
	ast.Inspect(body, func(nd ast.Node) bool {
		ifs, ok := nd.(*ast.IfStmt)
		if !ok {
			return true
		}
		cond, ok := ifs.Cond.(*ast.BinaryExpr)
		if !ok || cond.Op != token.EQL {
			return true
		}
		isNil := func(e ast.Expr) bool {
			id, ok := unparen(e).(*ast.Ident)
			return ok && id.Name == "nil"
		}
		var other ast.Expr
		switch {
		case isNil(cond.X):
			other = cond.Y
		case isNil(cond.Y):
			other = cond.X
		default:
			return true
		}
		if isContextType(pass.Info.TypeOf(other)) {
			regions = append(regions, ctxPosRange{ifs.Body.Pos(), ifs.Body.End()})
		}
		return true
	})
	return regions
}

func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	o := named.Obj()
	return o.Name() == "Context" && o.Pkg() != nil && o.Pkg().Path() == "context"
}

// checkBlocking implements rule 2 for one serve function.
func checkBlocking(pp *ProgramPass, n *FuncNode) {
	pass := pp.PackagePass(n.Pkg)
	info := n.Pkg.Info
	selectComm := map[ast.Expr]bool{}
	selectSends := map[ast.Stmt]bool{}
	ast.Inspect(n.Decl.Body, func(nd ast.Node) bool {
		if s, ok := nd.(*ast.SelectStmt); ok {
			for _, cl := range s.Body.List {
				if cc := cl.(*ast.CommClause); cc.Comm != nil {
					markCommReceives(cc.Comm, selectComm)
					if snd, ok := cc.Comm.(*ast.SendStmt); ok {
						selectSends[snd] = true
					}
				}
			}
		}
		return true
	})
	report := func(node ast.Node, what string) {
		if pass.hasAnnotation(n.File, node, "fod:ctxok") {
			return
		}
		pp.Report(n.Pkg, node.Pos(),
			"%s in handler-reachable %s has no cancellation path (select on ctx.Done(), or annotate //fod:ctxok)",
			what, n.Decl.Name.Name)
	}
	ast.Inspect(n.Decl.Body, func(nd ast.Node) bool {
		switch s := nd.(type) {
		case *ast.SendStmt:
			if !selectSends[s] {
				report(s, "channel send")
			}
		case *ast.UnaryExpr:
			if s.Op == token.ARROW && !selectComm[s] {
				report(s, "channel receive")
			}
		case *ast.SelectStmt:
			hasDefault, hasDone := false, false
			for _, cl := range s.Body.List {
				cc := cl.(*ast.CommClause)
				if cc.Comm == nil {
					hasDefault = true
					continue
				}
				if commHasDone(info, cc.Comm) {
					hasDone = true
				}
			}
			if !hasDefault && !hasDone {
				report(s, "select without default or ctx.Done() case")
			}
		case *ast.CallExpr:
			if sel, ok := s.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Wait" {
				if si := info.Selections[sel]; si != nil && si.Obj().Pkg() != nil && si.Obj().Pkg().Path() == "sync" {
					report(s, recvTypeName(si)+".Wait")
				}
			}
		}
		return true
	})
}

// commHasDone reports whether a select comm statement receives from a
// Done()-shaped channel (a method call named Done on a context).
func commHasDone(info *types.Info, comm ast.Stmt) bool {
	found := false
	ast.Inspect(comm, func(nd ast.Node) bool {
		call, ok := nd.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Done" {
			return true
		}
		if isContextType(info.TypeOf(sel.X)) {
			found = true
		}
		return true
	})
	return found
}

// checkUncancellableLoop implements rule 3 for one engine function.
func checkUncancellableLoop(pp *ProgramPass, n *FuncNode) {
	if !ast.IsExported(n.Obj.Name()) {
		return
	}
	if funcHasAnnotation(n.Decl, "fod:hotpath") || funcHasAnnotation(n.Decl, "fod:ctxok") {
		return
	}
	info := n.Pkg.Info
	sig := n.Obj.Type().(*types.Signature)
	for i := 0; i < sig.Params().Len(); i++ {
		if isContextType(sig.Params().At(i).Type()) {
			return
		}
	}
	// A function that mentions a context anywhere (field, option struct,
	// stored ctx) is considered threaded.
	mentionsCtx := false
	ast.Inspect(n.Decl.Body, func(nd ast.Node) bool {
		if e, ok := nd.(ast.Expr); ok && isContextType(info.TypeOf(e)) {
			mentionsCtx = true
			return false
		}
		return true
	})
	if mentionsCtx {
		return
	}
	// Loops whose body calls something — the enumeration shape.
	var loopPos token.Pos
	ast.Inspect(n.Decl.Body, func(nd ast.Node) bool {
		if loopPos != token.NoPos {
			return false
		}
		var body *ast.BlockStmt
		switch l := nd.(type) {
		case *ast.ForStmt:
			body = l.Body
		case *ast.RangeStmt:
			body = l.Body
		default:
			return true
		}
		ast.Inspect(body, func(m ast.Node) bool {
			if _, ok := m.(*ast.CallExpr); ok {
				loopPos = nd.Pos()
				return false
			}
			return true
		})
		return true
	})
	if loopPos == token.NoPos {
		return
	}
	pp.Report(n.Pkg, loopPos,
		"%s is handler-reachable and loops over the enumeration machinery without a context — it cannot be cancelled mid-request (accept a ctx with a periodic checkpoint, or annotate //fod:ctxok)",
		n.Decl.Name.Name)
}
