package lint

import (
	"go/ast"
	"go/types"
)

// This file holds the per-function-body checks of the hot-path contract:
// a function on the answering phase of Theorem 2.3 (NextGeq / Test /
// skip-pointer lookup / store successor search), whose per-call cost the
// paper bounds by a constant, must stay free of the constructs that
// silently break that bound:
//
//   - calls into package fmt (formatting allocates and reflects)
//   - time-dependent calls (time.Now, time.Since, …): the hot path must
//     not read clocks — instrumentation lives in un-annotated wrappers
//     behind the obs nil-check
//   - map or channel creation (make / literals): unbounded allocation
//   - string <-> []byte conversions (always allocate)
//   - append whose result lands anywhere but a plain local variable
//     (field, index or global targets amortize to heap growth)
//   - closures capturing loop variables (each iteration allocates)
//   - calls into log and log/slog (logging formats and locks; request
//     events belong in the serve layer, outside the enumeration loop)
//   - method calls on the tracing types (Span, Trace, Tracer, Ring) and
//     the span constructors Registry.Span / Registry.StartSpan: a span
//     reads the clock twice and may take a trace lock, so per-answer
//     tracing would turn O(1) delay into O(instrumentation)
//
// These checks used to ship as the per-function `hotpath` analyzer
// (PR 5); they are now the body-check half of `hotpath-transitive`
// (hotpathtrans.go), which runs them over every function in the call
// closure of a `//fod:hotpath` root, not just the annotated roots. The
// dynamic twin is the tier-1 AllocsPerRun suite in internal/core, which
// pins Iterator.Next and Engine.Test at 0 allocs/op (see DESIGN.md
// "Static analysis").

// timeDependent are the clock-reading functions of package time.
var timeDependent = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "Tick": true, "NewTimer": true, "NewTicker": true,
}

func checkHotFunc(pass *Pass, fn *ast.FuncDecl) {
	allowedAppends := localAppendTargets(pass, fn.Body)
	loopVars := loopVarObjects(pass, fn.Body)
	coldCalls := panicArgCalls(pass, fn.Body)

	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if !coldCalls[n] {
				checkHotCall(pass, fn, n, allowedAppends)
			}
		case *ast.CompositeLit:
			if t := pass.Info.TypeOf(n); t != nil {
				switch t.Underlying().(type) {
				case *types.Map:
					pass.Report(n.Pos(), "%s: map literal allocates on the hot path", fn.Name.Name)
				case *types.Chan:
					pass.Report(n.Pos(), "%s: channel literal on the hot path", fn.Name.Name)
				}
			}
		case *ast.FuncLit:
			reportLoopCaptures(pass, fn, n, loopVars)
			return true
		}
		return true
	})
}

func checkHotCall(pass *Pass, fn *ast.FuncDecl, call *ast.CallExpr, allowedAppends map[*ast.CallExpr]bool) {
	// Package-qualified calls: fmt.* and the time-dependent set.
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if pkg := packageOf(pass, sel.X); pkg != nil {
			switch pkg.Imported().Path() {
			case "fmt":
				pass.Report(call.Pos(), "%s: calls fmt.%s on the hot path (allocates; format outside //fod:hotpath)",
					fn.Name.Name, sel.Sel.Name)
			case "time":
				if timeDependent[sel.Sel.Name] {
					pass.Report(call.Pos(), "%s: calls time.%s on the hot path (clock reads belong in un-annotated instrumented wrappers)",
						fn.Name.Name, sel.Sel.Name)
				}
			case "log", "log/slog":
				pass.Report(call.Pos(), "%s: calls %s.%s on the hot path (logging formats and locks; emit events outside //fod:hotpath)",
					fn.Name.Name, pkg.Imported().Name(), sel.Sel.Name)
			}
		} else if recv, meth, ok := tracingMethod(pass, sel); ok {
			pass.Report(call.Pos(), "%s: calls %s.%s on the hot path (tracing reads clocks and locks; spans belong in un-annotated wrappers)",
				fn.Name.Name, recv, meth)
		}
	}
	// Builtins and conversions.
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		switch obj := pass.Info.Uses[fun].(type) {
		case *types.Builtin:
			switch obj.Name() {
			case "make":
				if len(call.Args) > 0 {
					if t := pass.Info.TypeOf(call.Args[0]); t != nil {
						switch t.Underlying().(type) {
						case *types.Map:
							pass.Report(call.Pos(), "%s: make(map) on the hot path", fn.Name.Name)
						case *types.Chan:
							pass.Report(call.Pos(), "%s: make(chan) on the hot path", fn.Name.Name)
						}
					}
				}
			case "append":
				if !allowedAppends[call] {
					pass.Report(call.Pos(), "%s: append escapes (result must be assigned to a plain local variable)", fn.Name.Name)
				}
			}
		}
	}
	// string <-> []byte conversions.
	if tv, ok := pass.Info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		to := pass.Info.TypeOf(call.Fun)
		from := pass.Info.TypeOf(call.Args[0])
		if isStringByteConv(to, from) {
			pass.Report(call.Pos(), "%s: string/[]byte conversion allocates on the hot path", fn.Name.Name)
		}
	}
}

func isStringByteConv(to, from types.Type) bool {
	if to == nil || from == nil {
		return false
	}
	return (isString(to) && isByteSlice(from)) || (isByteSlice(to) && isString(from))
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}

// tracingTypes are the receiver type names whose every method is a
// tracing primitive; spanConstructors are the Registry methods that mint
// spans. Matching is by name, not import path, so the golden fixtures
// (which may only import stdlib) can declare look-alike types — and any
// future copy of the tracing vocabulary is caught too.
var tracingTypes = map[string]bool{
	"Span": true, "Trace": true, "Tracer": true, "Ring": true,
}

var spanConstructors = map[string]bool{
	"Span": true, "StartSpan": true,
}

// tracingMethod reports whether sel is a method call on one of the
// tracing types, or a span-constructor call on a Registry.
func tracingMethod(pass *Pass, sel *ast.SelectorExpr) (recv, meth string, ok bool) {
	s := pass.Info.Selections[sel]
	if s == nil || s.Kind() != types.MethodVal {
		return "", "", false
	}
	t := s.Recv()
	if p, isPtr := t.Underlying().(*types.Pointer); isPtr {
		t = p.Elem()
	}
	named, isNamed := t.(*types.Named)
	if !isNamed {
		return "", "", false
	}
	name := named.Obj().Name()
	if tracingTypes[name] || (name == "Registry" && spanConstructors[sel.Sel.Name]) {
		return name, sel.Sel.Name, true
	}
	return "", "", false
}

// packageOf resolves expr to the *types.PkgName it names, or nil.
func packageOf(pass *Pass, expr ast.Expr) *types.PkgName {
	id, ok := expr.(*ast.Ident)
	if !ok {
		return nil
	}
	pkg, _ := pass.Info.Uses[id].(*types.PkgName)
	return pkg
}

// localAppendTargets collects the append calls whose result is assigned to
// a plain function-local variable — the only form whose amortized growth
// stays confined to the caller's frame logic (`buf = append(buf, x)`).
func localAppendTargets(pass *Pass, body *ast.BlockStmt) map[*ast.CallExpr]bool {
	allowed := map[*ast.CallExpr]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			call, ok := rhs.(*ast.CallExpr)
			if !ok {
				continue
			}
			fun, ok := call.Fun.(*ast.Ident)
			if !ok {
				continue
			}
			if b, ok := pass.Info.Uses[fun].(*types.Builtin); !ok || b.Name() != "append" {
				continue
			}
			if id, ok := as.Lhs[i].(*ast.Ident); ok && isLocalVar(pass, id) {
				allowed[call] = true
			}
		}
		return true
	})
	return allowed
}

func isLocalVar(pass *Pass, id *ast.Ident) bool {
	if id.Name == "_" {
		return false
	}
	obj := pass.Info.ObjectOf(id)
	v, ok := obj.(*types.Var)
	if !ok || v.IsField() {
		return false
	}
	// Package-scope variables are globals; anything nested deeper is local.
	return v.Parent() != pass.Pkg.Scope()
}

// panicArgCalls collects the call expressions nested inside the
// arguments of panic(...) calls: a panic path is never taken on the
// success path the delay bound covers, so formatting the panic message
// (fmt.Sprintf and friends) is exempt from the hot-path rules.
func panicArgCalls(pass *Pass, body *ast.BlockStmt) map[*ast.CallExpr]bool {
	cold := map[*ast.CallExpr]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		id, ok := call.Fun.(*ast.Ident)
		if !ok {
			return true
		}
		if b, ok := pass.Info.Uses[id].(*types.Builtin); !ok || b.Name() != "panic" {
			return true
		}
		for _, arg := range call.Args {
			ast.Inspect(arg, func(m ast.Node) bool {
				if c, ok := m.(*ast.CallExpr); ok {
					cold[c] = true
				}
				return true
			})
		}
		return true
	})
	return cold
}

// loopVarObjects collects the objects declared as range/for loop variables
// anywhere in body.
func loopVarObjects(pass *Pass, body *ast.BlockStmt) map[types.Object]bool {
	vars := map[types.Object]bool{}
	def := func(e ast.Expr) {
		if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
			if obj := pass.Info.Defs[id]; obj != nil {
				vars[obj] = true
			}
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.RangeStmt:
			def(n.Key)
			def(n.Value)
		case *ast.ForStmt:
			if init, ok := n.Init.(*ast.AssignStmt); ok {
				for _, lhs := range init.Lhs {
					def(lhs)
				}
			}
		}
		return true
	})
	return vars
}

// reportLoopCaptures flags a closure that references a loop variable of
// the enclosing function: such a closure cannot be allocated once and
// reused, so every loop iteration pays a heap allocation.
func reportLoopCaptures(pass *Pass, fn *ast.FuncDecl, lit *ast.FuncLit, loopVars map[types.Object]bool) {
	if len(loopVars) == 0 {
		return
	}
	reported := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if reported {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if obj := pass.Info.Uses[id]; obj != nil && loopVars[obj] {
			// The loop variable must be declared outside the literal for
			// this to be a capture.
			if obj.Pos() < lit.Pos() || obj.Pos() > lit.End() {
				pass.Report(lit.Pos(), "%s: closure captures loop variable %q (allocates per iteration)", fn.Name.Name, id.Name)
				reported = true
			}
		}
		return true
	})
}
