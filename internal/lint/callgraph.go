package lint

// The call graph the //fod:hotpath closure is walked over: a Program is
// the loaded packages, every declared function as a FuncNode, and
// resolved call edges between them, built from the standard library
// alone.
//
// Callee resolution is deliberately conservative (over-approximating):
//
//   - static calls (package functions, concrete-receiver methods) resolve
//     through go/types object identity, including promoted methods of
//     embedded fields and generic functions (the edge targets the generic
//     declaration; instantiations share its body);
//   - interface method calls resolve by class-hierarchy analysis: every
//     in-module method with the same name whose receiver type implements
//     the static interface of the call is a candidate callee. Methods on
//     type parameters dispatch the same way through their constraint
//     interface;
//   - calls through func values (variables, fields, parameters, results)
//     are "dynamic": the candidates are every address-taken in-module
//     function with an identical signature. A dynamic call with no
//     candidate stays in the graph with Dynamic=true so Check can flag
//     it instead of silently under-approximating;
//   - function-literal bodies are attributed to the enclosing declared
//     function: a closure's calls become the outer function's calls. This
//     over-approximates (the literal may escape and run elsewhere) in the
//     safe direction for the hot-path check.

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// FuncNode is one declared function or method of a loaded package.
type FuncNode struct {
	Obj  *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package
	File *ast.File
	// Calls are the call sites inside the function body, including the
	// bodies of function literals declared within it.
	Calls []*CallSite
}

// Name renders the node as pkg.Func or pkg.(Type).Method for diagnostics.
func (n *FuncNode) Name() string {
	obj := n.Obj
	if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		name := types.TypeString(t, func(p *types.Package) string { return "" })
		return obj.Pkg().Name() + ".(" + name + ")." + obj.Name()
	}
	if obj.Pkg() != nil {
		return obj.Pkg().Name() + "." + obj.Name()
	}
	return obj.Name()
}

// CallSite is one call expression inside a FuncNode, with its resolved
// in-module candidate callees.
type CallSite struct {
	Call *ast.CallExpr
	Pos  token.Pos
	// Callees are the resolved in-module candidates (exactly one for a
	// static call; possibly many for interface dispatch or func values;
	// empty for calls that leave the module).
	Callees []*FuncNode
	// Dynamic marks a call through a func value. Callees then holds the
	// address-taken signature-compatible candidates, possibly none.
	Dynamic bool
}

// Program is the whole-program view: every loaded package plus the call
// graph over their declared functions.
type Program struct {
	Pkgs  []*Package
	Nodes []*FuncNode

	byObj map[*types.Func]*FuncNode
}

// NodeOf returns the FuncNode of a declared function object, or nil for
// functions outside the loaded packages.
func (p *Program) NodeOf(obj *types.Func) *FuncNode {
	if obj == nil {
		return nil
	}
	// Generic instantiations share the declaration's node.
	if orig := obj.Origin(); orig != nil {
		obj = orig
	}
	return p.byObj[obj]
}

// BuildProgram constructs the call graph over the loaded packages. All
// packages must share one token.FileSet (Load guarantees this; LoadDir
// packages are single-package programs).
func BuildProgram(pkgs []*Package) *Program {
	prog := &Program{
		Pkgs:  pkgs,
		byObj: map[*types.Func]*FuncNode{},
	}
	// Pass 1: one node per declared function with a body.
	for _, pkg := range pkgs {
		for _, file := range pkg.Syntax {
			for _, decl := range file.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				obj, _ := pkg.Info.Defs[fn.Name].(*types.Func)
				if obj == nil {
					continue
				}
				node := &FuncNode{Obj: obj, Decl: fn, Pkg: pkg, File: file}
				prog.Nodes = append(prog.Nodes, node)
				prog.byObj[obj] = node
			}
		}
	}
	sort.Slice(prog.Nodes, func(i, j int) bool {
		a, b := prog.Nodes[i], prog.Nodes[j]
		if a.Pkg.PkgPath != b.Pkg.PkgPath {
			return a.Pkg.PkgPath < b.Pkg.PkgPath
		}
		return a.Decl.Pos() < b.Decl.Pos()
	})

	r := &resolver{
		prog:          prog,
		methodsByName: map[string][]*FuncNode{},
		takenBySig:    map[string][]*FuncNode{},
	}
	for _, n := range prog.Nodes {
		if sig := n.Obj.Type().(*types.Signature); sig.Recv() != nil {
			r.methodsByName[n.Obj.Name()] = append(r.methodsByName[n.Obj.Name()], n)
		}
	}
	r.indexAddressTaken()

	// Pass 2: resolve the call sites of every node body.
	for _, n := range prog.Nodes {
		r.resolveBody(n)
	}
	return prog
}

// resolver holds the indexes needed to resolve call edges.
type resolver struct {
	prog          *Program
	methodsByName map[string][]*FuncNode
	// takenBySig maps a signature key to the address-taken in-module
	// functions carrying it — the candidate set for func-value calls.
	takenBySig map[string][]*FuncNode
}

// sigKey renders a signature's parameter and result types (receiver
// dropped) into a comparable key.
func sigKey(sig *types.Signature) string {
	var b strings.Builder
	qual := func(p *types.Package) string { return p.Path() }
	b.WriteByte('(')
	for i := 0; i < sig.Params().Len(); i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(types.TypeString(sig.Params().At(i).Type(), qual))
	}
	b.WriteByte(')')
	for i := 0; i < sig.Results().Len(); i++ {
		if i == 0 {
			b.WriteByte('(')
		} else {
			b.WriteByte(',')
		}
		b.WriteString(types.TypeString(sig.Results().At(i).Type(), qual))
	}
	if sig.Results().Len() > 0 {
		b.WriteByte(')')
	}
	return b.String()
}

// indexAddressTaken finds every in-module function referenced outside a
// direct call position — assigned, passed, stored, or bound as a method
// value — and indexes it by the signature of the resulting func value.
func (r *resolver) indexAddressTaken() {
	for _, pkg := range r.prog.Pkgs {
		for _, file := range pkg.Syntax {
			// Collect the expressions that occupy call-function position;
			// references elsewhere are value references.
			funPos := map[ast.Expr]bool{}
			ast.Inspect(file, func(nd ast.Node) bool {
				if call, ok := nd.(*ast.CallExpr); ok {
					funPos[unparen(call.Fun)] = true
					// Generic explicit instantiation: f[T](x).
					switch ix := unparen(call.Fun).(type) {
					case *ast.IndexExpr:
						funPos[unparen(ix.X)] = true
					case *ast.IndexListExpr:
						funPos[unparen(ix.X)] = true
					}
				}
				return true
			})
			ast.Inspect(file, func(nd ast.Node) bool {
				var obj types.Object
				var expr ast.Expr
				switch e := nd.(type) {
				case *ast.Ident:
					obj = pkg.Info.Uses[e]
					expr = e
				case *ast.SelectorExpr:
					obj = pkg.Info.Uses[e.Sel]
					expr = e
				default:
					return true
				}
				fn, ok := obj.(*types.Func)
				if !ok || funPos[expr] {
					return true
				}
				node := r.prog.NodeOf(fn)
				if node == nil {
					return true
				}
				// The value signature of a method value drops the receiver;
				// Info.Types has the bound type for selector expressions.
				sig, _ := fn.Type().(*types.Signature)
				if tv, ok := pkg.Info.Types[expr]; ok {
					if s, ok := tv.Type.(*types.Signature); ok {
						sig = s
					}
				}
				if sig == nil {
					return true
				}
				key := sigKey(sig)
				for _, have := range r.takenBySig[key] {
					if have == node {
						return true
					}
				}
				r.takenBySig[key] = append(r.takenBySig[key], node)
				return true
			})
		}
	}
}

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// resolveBody walks the node's body (function literals included) and
// records a CallSite per call expression.
func (r *resolver) resolveBody(n *FuncNode) {
	ast.Inspect(n.Decl.Body, func(nd ast.Node) bool {
		call, ok := nd.(*ast.CallExpr)
		if !ok {
			return true
		}
		site := r.resolveCall(n.Pkg, call)
		if site != nil {
			n.Calls = append(n.Calls, site)
		}
		return true
	})
}

// resolveCall classifies one call expression. It returns nil for
// conversions, builtins and calls into packages outside the program that
// carry no dynamic behavior worth modeling.
func (r *resolver) resolveCall(pkg *Package, call *ast.CallExpr) *CallSite {
	info := pkg.Info
	fun := unparen(call.Fun)

	// Conversions (T(x)) are not calls.
	if tv, ok := info.Types[fun]; ok && tv.IsType() {
		return nil
	}

	// Explicit generic instantiation: f[T](x) / x.m[T](y).
	switch ix := fun.(type) {
	case *ast.IndexExpr:
		if _, ok := info.Types[ix.X]; ok {
			if isFuncExpr(info, ix.X) {
				fun = unparen(ix.X)
			}
		}
	case *ast.IndexListExpr:
		fun = unparen(ix.X)
	}

	switch f := fun.(type) {
	case *ast.Ident:
		switch obj := info.Uses[f].(type) {
		case *types.Builtin:
			return nil
		case *types.Func:
			// Direct call of a package-level function (possibly generic).
			site := &CallSite{Call: call, Pos: call.Pos()}
			if node := r.prog.NodeOf(obj); node != nil {
				site.Callees = []*FuncNode{node}
			}
			return site
		case *types.Var:
			// Call through a func-typed variable or parameter.
			return r.dynamicSite(info, call, f)
		}
		return nil

	case *ast.SelectorExpr:
		if pkgName := packageOf(info, f.X); pkgName != nil {
			// Package-qualified function call.
			if obj, ok := info.Uses[f.Sel].(*types.Func); ok {
				site := &CallSite{Call: call, Pos: call.Pos()}
				if node := r.prog.NodeOf(obj); node != nil {
					site.Callees = []*FuncNode{node}
				}
				return site
			}
			// Package-level func variable (e.g. a hook).
			if _, ok := info.Uses[f.Sel].(*types.Var); ok {
				return r.dynamicSite(info, call, f)
			}
			return nil
		}
		sel := info.Selections[f]
		if sel == nil {
			return nil
		}
		switch sel.Kind() {
		case types.MethodVal:
			obj := sel.Obj().(*types.Func)
			recv := sel.Recv()
			if iface := interfaceOf(recv); iface != nil {
				return r.chaSite(call, obj.Name(), iface)
			}
			site := &CallSite{Call: call, Pos: call.Pos()}
			if node := r.prog.NodeOf(obj); node != nil {
				site.Callees = []*FuncNode{node}
			}
			return site
		case types.FieldVal:
			// Call through a func-typed struct field.
			return r.dynamicSite(info, call, f)
		case types.MethodExpr:
			return nil
		}
		return nil

	case *ast.FuncLit:
		// Immediately-invoked literal: its body is already attributed to
		// the enclosing function.
		return nil

	case *ast.CallExpr, *ast.IndexExpr, *ast.TypeAssertExpr:
		// f()() and friends: a func value of unknown provenance.
		return r.dynamicSite(info, call, fun)
	}
	return nil
}

func isFuncExpr(info *types.Info, e ast.Expr) bool {
	t := info.TypeOf(e)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Signature)
	return ok
}

// dynamicSite builds a call site through a func value: candidates are the
// address-taken functions with an identical value signature.
func (r *resolver) dynamicSite(info *types.Info, call *ast.CallExpr, fun ast.Expr) *CallSite {
	site := &CallSite{Call: call, Pos: call.Pos(), Dynamic: true}
	t := info.TypeOf(fun)
	if t == nil {
		return site
	}
	sig, ok := t.Underlying().(*types.Signature)
	if !ok {
		return site
	}
	site.Callees = append(site.Callees, r.takenBySig[sigKey(sig)]...)
	return site
}

// interfaceOf returns the interface type a method call dispatches
// through: the receiver's interface, or a type parameter's constraint
// interface. Concrete receivers return nil.
func interfaceOf(recv types.Type) *types.Interface {
	switch t := recv.(type) {
	case *types.TypeParam:
		if iface, ok := t.Constraint().Underlying().(*types.Interface); ok {
			return iface
		}
		return nil
	}
	if iface, ok := recv.Underlying().(*types.Interface); ok {
		return iface
	}
	return nil
}

// chaSite resolves an interface method call by class-hierarchy analysis:
// every in-module method with the call's name whose receiver type
// implements the interface is a candidate.
func (r *resolver) chaSite(call *ast.CallExpr, name string, iface *types.Interface) *CallSite {
	site := &CallSite{Call: call, Pos: call.Pos()}
	for _, m := range r.methodsByName[name] {
		sig := m.Obj.Type().(*types.Signature)
		recv := sig.Recv().Type()
		base := recv
		if p, ok := base.(*types.Pointer); ok {
			base = p.Elem()
		}
		if types.Implements(recv, iface) ||
			types.Implements(types.NewPointer(base), iface) {
			site.Callees = append(site.Callees, m)
		}
	}
	return site
}
