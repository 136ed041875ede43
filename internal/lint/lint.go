// Package lint is the repository's custom static-analysis pass: a small,
// stdlib-only analyzer framework (go/ast + go/types, no x/tools
// dependency) plus the repo-specific analyzers that machine-check the
// invariants behind the paper's complexity claims — invariants that
// `go vet` and the race detector cannot see.
//
// Since v2 the framework is whole-program: Load keeps every package in
// one FileSet, BuildProgram derives a call graph over them (static calls,
// interface dispatch by class-hierarchy analysis, func values by
// address-taken signature matching; see callgraph.go), and analyzers may
// be per-package (Run) or interprocedural (RunProgram).
//
// The shipped analyzers (see DESIGN.md "Static analysis" for the mapping
// to paper claims):
//
//   - hotpath-transitive: the entire call closure of every `//fod:hotpath`
//     function must stay free of allocation-prone and time-dependent
//     constructs, protecting the constant-delay guarantee of Theorem 2.3 /
//     Corollary 2.5 across calls, not just in the annotated frame.
//   - maporder: no unordered `range` over a map in the deterministic
//     packages (core, cover, dist, graph, serve, skip, snap, store)
//     unless the statement carries `//fod:sorted`, protecting the
//     byte-identical parallel-vs-sequential guarantee of the
//     preprocessing pipeline and the deterministic response/snapshot
//     promises of the serving layers.
//   - obsnil:   exported pointer-receiver methods of internal/obs must
//     nil-guard the receiver before dereferencing it, keeping the
//     disabled-metrics path (nil instruments as sinks) panic-free.
//   - errdrop:  no silently discarded error returns in internal/serve,
//     internal/snap, internal/lint and cmd/* (a `//fod:errok` annotation
//     acknowledges a deliberate discard).
//   - ctxflow:  request-path functions thread the request context — no
//     detached context.Background()/TODO(), no handler-reachable blocking
//     without a cancellation path, no uncancellable enumeration loop in a
//     handler-reachable exported engine entry point.
//   - lockheld: no channel operations, Waits, I/O or func-value callbacks
//     while a sync.Mutex/RWMutex is held, checked transitively over the
//     call graph — a serve-layer liveness invariant.
//   - atomicmix: no field accessed both through sync/atomic and plainly,
//     and no mutex whose only job is guarding one scalar a sync/atomic
//     type already covers.
//
// Annotation vocabulary (line comments, attached to the enclosing
// declaration or statement; trailing prose is the human justification):
//
//	//fod:hotpath   this function is on the constant-delay hot path
//	//fod:coldpath  this call/function is off the hot path (guarded,
//	                memoized, or error-only) — not traversed by
//	                hotpath-transitive
//	//fod:sorted    this map iteration sorts keys (or is provably
//	                order-free); the determinism guarantee is preserved
//	//fod:errok     this error discard is deliberate and harmless
//	//fod:ctxok     this detachment/block/loop is deliberate (lifecycle
//	                context, yield-bounded enumeration, ...)
//	//fod:lockok    this operation under a lock is deliberate and bounded
//	//fod:atomicok  this mixed/hand-rolled access pattern is deliberate
//
// The driver (cmd/fodlint) loads every package of the module, runs all
// analyzers, filters findings through the reviewed baseline file
// (lint.baseline.json), prints file:line diagnostics (or -json) and
// exits non-zero when any invariant is violated. It runs in
// scripts/verify.sh tier 2 — over every package, internal/lint included.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one reported violation.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Analyzer is one named invariant check. Per-package analyzers set Run;
// whole-program (interprocedural) analyzers set RunProgram and receive
// the shared call-graph substrate instead. Exactly one of the two is set.
type Analyzer struct {
	Name string
	Doc  string
	// Run inspects one package and reports violations through pass.Report.
	Run func(pass *Pass)
	// RunProgram inspects the whole program (all loaded packages plus the
	// call graph over them) in one pass.
	RunProgram func(pass *ProgramPass)
}

// Pass carries one (analyzer, package) unit of work.
type Pass struct {
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info

	analyzer *Analyzer
	report   func(Diagnostic)

	comments map[*ast.File]commentIndex
}

// Report records a violation at pos.
func (p *Pass) Report(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// ProgramPass carries one (analyzer, program) unit of work for the
// interprocedural analyzers.
type ProgramPass struct {
	Prog *Program

	analyzer *Analyzer
	report   func(Diagnostic)
	passes   map[*Package]*Pass
}

// PackagePass returns a per-package Pass wired to this program pass's
// analyzer and report sink, so program analyzers can reuse the
// annotation helpers and body checks of the per-package machinery.
func (pp *ProgramPass) PackagePass(pkg *Package) *Pass {
	if p, ok := pp.passes[pkg]; ok {
		return p
	}
	p := &Pass{
		Fset:     pkg.Fset,
		Files:    pkg.Syntax,
		Pkg:      pkg.Types,
		Info:     pkg.Info,
		analyzer: pp.analyzer,
		report:   pp.report,
	}
	pp.passes[pkg] = p
	return p
}

// decoratedPass returns a Pass whose reports get suffix appended to the
// message — used to tag diagnostics with call-chain context.
func (pp *ProgramPass) decoratedPass(pkg *Package, suffix string) *Pass {
	return &Pass{
		Fset:     pkg.Fset,
		Files:    pkg.Syntax,
		Pkg:      pkg.Types,
		Info:     pkg.Info,
		analyzer: pp.analyzer,
		report: func(d Diagnostic) {
			d.Message += suffix
			pp.report(d)
		},
	}
}

// Report records a violation at pos in the given package's file set.
func (pp *ProgramPass) Report(pkg *Package, pos token.Pos, format string, args ...any) {
	pp.report(Diagnostic{
		Pos:      pkg.Fset.Position(pos),
		Analyzer: pp.analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// commentIndex maps line numbers to the fod annotations present on them.
type commentIndex map[int][]string

// annotationsOnLine returns the fod annotations (e.g. "fod:sorted") whose
// comment sits on the given line of the file.
func (p *Pass) annotationsAt(file *ast.File, line int) []string {
	if p.comments == nil {
		p.comments = map[*ast.File]commentIndex{}
	}
	idx, ok := p.comments[file]
	if !ok {
		idx = commentIndex{}
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, "fod:") {
					continue
				}
				// Keep only the directive word; trailing prose is a
				// human-facing justification.
				word := text
				if i := strings.IndexAny(word, " \t—-"); i > 0 {
					word = word[:i]
				}
				ln := p.Fset.Position(c.Pos()).Line
				idx[ln] = append(idx[ln], word)
			}
		}
		p.comments[file] = idx
	}
	return idx[line]
}

// hasAnnotation reports whether the node's first line, or the line
// directly above it, carries the given fod directive. Doc comments of
// declarations are therefore honored, as are end-of-line annotations on
// statements.
func (p *Pass) hasAnnotation(file *ast.File, node ast.Node, directive string) bool {
	line := p.Fset.Position(node.Pos()).Line
	for _, l := range []int{line, line - 1} {
		for _, a := range p.annotationsAt(file, l) {
			if a == directive {
				return true
			}
		}
	}
	return false
}

// funcHasAnnotation reports whether fn's doc comment carries the
// directive (any line of the doc block).
func funcHasAnnotation(fn *ast.FuncDecl, directive string) bool {
	if fn.Doc == nil {
		return false
	}
	for _, c := range fn.Doc.List {
		text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		if text == directive || strings.HasPrefix(text, directive+" ") {
			return true
		}
	}
	return false
}

// All returns every shipped analyzer, in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		HotPathTrans(),
		MapOrder(),
		ObsNil(),
		ErrDrop(),
		CtxFlow(),
		LockHeld(),
		AtomicMix(),
	}
}

// RunAnalyzers runs the analyzers over every loaded package and returns
// the diagnostics sorted by position. Per-package analyzers run once per
// package; program analyzers run once over the call graph built from all
// the packages together (which requires them to share one FileSet — Load
// guarantees this, and a single LoadDir package trivially satisfies it).
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	report := func(d Diagnostic) { diags = append(diags, d) }
	var prog *Program
	for _, a := range analyzers {
		if a.RunProgram == nil {
			continue
		}
		if prog == nil {
			prog = BuildProgram(pkgs)
		}
		a.RunProgram(&ProgramPass{
			Prog:     prog,
			analyzer: a,
			report:   report,
			passes:   map[*Package]*Pass{},
		})
	}
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			if a.Run == nil {
				continue
			}
			pass := &Pass{
				Fset:     pkg.Fset,
				Files:    pkg.Syntax,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				analyzer: a,
				report:   report,
			}
			a.Run(pass)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags
}
