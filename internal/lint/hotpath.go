package lint

import (
	"fmt"
	"go/ast"
	"go/token"
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
// checkBody runs these rules over the body of one member of the
// //fod:hotpath closure (see HotClosure in hotpathtrans.go). The dynamic
// twin is the tier-1 AllocsPerRun suite in internal/core, which pins
// Iterator.Next and Engine.Test at 0 allocs/op (see DESIGN.md §3.1).

// timeDependent are the clock-reading functions of package time.
var timeDependent = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "Tick": true, "NewTimer": true, "NewTicker": true,
}

// hotFunc is one closure member under check; its findings go to diags.
type hotFunc struct {
	pkg   *Package
	decl  *ast.FuncDecl
	chain string // " [hot closure: …]" for a member a root reaches, "" for a root
	diags *[]Diagnostic
}

// report records a finding, prefixed with the function's name and
// suffixed with its chain.
func (h *hotFunc) report(pos token.Pos, format string, args ...any) {
	*h.diags = append(*h.diags, Diagnostic{
		Pos:     h.pkg.Fset.Position(pos),
		Message: h.decl.Name.Name + ": " + fmt.Sprintf(format, args...) + h.chain,
	})
}

func (h *hotFunc) checkBody() {
	info := h.pkg.Info
	body := h.decl.Body
	allowedAppends := localAppendTargets(info, h.pkg.Types.Scope(), body)
	loopVars := loopVarObjects(info, body)
	coldCalls := panicArgCalls(info, body)

	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if !coldCalls[n] {
				h.checkCall(n, allowedAppends)
			}
		case *ast.CompositeLit:
			if t := info.TypeOf(n); t != nil {
				switch t.Underlying().(type) {
				case *types.Map:
					h.report(n.Pos(), "map literal allocates on the hot path")
				case *types.Chan:
					h.report(n.Pos(), "channel literal on the hot path")
				}
			}
		case *ast.FuncLit:
			h.reportLoopCaptures(n, loopVars)
		}
		return true
	})
}

func (h *hotFunc) checkCall(call *ast.CallExpr, allowedAppends map[*ast.CallExpr]bool) {
	info := h.pkg.Info
	// Package-qualified calls: fmt.* and the time-dependent set.
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if pkg := packageOf(info, sel.X); pkg != nil {
			switch pkg.Imported().Path() {
			case "fmt":
				h.report(call.Pos(), "calls fmt.%s on the hot path (allocates; format outside //fod:hotpath)", sel.Sel.Name)
			case "time":
				if timeDependent[sel.Sel.Name] {
					h.report(call.Pos(), "calls time.%s on the hot path (clock reads belong in un-annotated instrumented wrappers)", sel.Sel.Name)
				}
			case "log", "log/slog":
				h.report(call.Pos(), "calls %s.%s on the hot path (logging formats and locks; emit events outside //fod:hotpath)",
					pkg.Imported().Name(), sel.Sel.Name)
			}
		} else if recv, meth, ok := tracingMethod(info, sel); ok {
			h.report(call.Pos(), "calls %s.%s on the hot path (tracing reads clocks and locks; spans belong in un-annotated wrappers)", recv, meth)
		}
	}
	// Builtins.
	if fun, ok := call.Fun.(*ast.Ident); ok {
		if obj, ok := info.Uses[fun].(*types.Builtin); ok {
			switch obj.Name() {
			case "make":
				if len(call.Args) > 0 {
					if t := info.TypeOf(call.Args[0]); t != nil {
						switch t.Underlying().(type) {
						case *types.Map:
							h.report(call.Pos(), "make(map) on the hot path")
						case *types.Chan:
							h.report(call.Pos(), "make(chan) on the hot path")
						}
					}
				}
			case "append":
				if !allowedAppends[call] {
					h.report(call.Pos(), "append escapes (result must be assigned to a plain local variable)")
				}
			}
		}
	}
	// string <-> []byte conversions.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		if isStringByteConv(info.TypeOf(call.Fun), info.TypeOf(call.Args[0])) {
			h.report(call.Pos(), "string/[]byte conversion allocates on the hot path")
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
func tracingMethod(info *types.Info, sel *ast.SelectorExpr) (recv, meth string, ok bool) {
	s := info.Selections[sel]
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
func packageOf(info *types.Info, expr ast.Expr) *types.PkgName {
	id, ok := expr.(*ast.Ident)
	if !ok {
		return nil
	}
	pkg, _ := info.Uses[id].(*types.PkgName)
	return pkg
}

// localAppendTargets collects the append calls whose result is assigned to
// a plain function-local variable — the only form whose amortized growth
// stays confined to the caller's frame logic (`buf = append(buf, x)`).
func localAppendTargets(info *types.Info, pkgScope *types.Scope, body *ast.BlockStmt) map[*ast.CallExpr]bool {
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
			if b, ok := info.Uses[fun].(*types.Builtin); !ok || b.Name() != "append" {
				continue
			}
			if id, ok := as.Lhs[i].(*ast.Ident); ok && isLocalVar(info, pkgScope, id) {
				allowed[call] = true
			}
		}
		return true
	})
	return allowed
}

func isLocalVar(info *types.Info, pkgScope *types.Scope, id *ast.Ident) bool {
	if id.Name == "_" {
		return false
	}
	obj := info.ObjectOf(id)
	v, ok := obj.(*types.Var)
	if !ok || v.IsField() {
		return false
	}
	// Package-scope variables are globals; anything nested deeper is local.
	return v.Parent() != pkgScope
}

// panicArgCalls collects the call expressions nested inside the
// arguments of panic(...) calls: a panic path is never taken on the
// success path the delay bound covers, so formatting the panic message
// (fmt.Sprintf and friends) is exempt from the hot-path rules.
func panicArgCalls(info *types.Info, body *ast.BlockStmt) map[*ast.CallExpr]bool {
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
		if b, ok := info.Uses[id].(*types.Builtin); !ok || b.Name() != "panic" {
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
func loopVarObjects(info *types.Info, body *ast.BlockStmt) map[types.Object]bool {
	vars := map[types.Object]bool{}
	def := func(e ast.Expr) {
		if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
			if obj := info.Defs[id]; obj != nil {
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
func (h *hotFunc) reportLoopCaptures(lit *ast.FuncLit, loopVars map[types.Object]bool) {
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
		if obj := h.pkg.Info.Uses[id]; obj != nil && loopVars[obj] {
			// The loop variable must be declared outside the literal for
			// this to be a capture.
			if obj.Pos() < lit.Pos() || obj.Pos() > lit.End() {
				h.report(lit.Pos(), "closure captures loop variable %q (allocates per iteration)", id.Name)
				reported = true
			}
		}
		return true
	})
}
