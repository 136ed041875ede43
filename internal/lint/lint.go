// Package lint is the repository's static check of the constant-delay
// claim of Theorem 2.3 / Corollary 2.5, built from the standard library
// alone (go/ast + go/types, no x/tools dependency).
//
// Check loads nothing itself: it takes the packages Load returns, builds
// a call graph over them (static calls, interface dispatch by
// class-hierarchy analysis, func values by address-taken signature
// matching; see callgraph.go), computes the call closure of every
// `//fod:hotpath` function (HotClosure) and holds each member of that
// closure to the hot-path body rules of hotpath.go: no fmt, clock reads,
// logging, tracing, map or chan allocation, string<->[]byte conversion,
// escaping append or loop-capturing closure, and no call through a func
// value whose target the graph cannot see.
//
// Annotation vocabulary (line comments; trailing prose is the human
// justification):
//
//	//fod:hotpath   this function is on the constant-delay hot path: a
//	                root of the closure (doc comment)
//	//fod:coldpath  this call (on or above its line) or this function
//	                (doc comment) is off the hot path — guarded, memoized
//	                or error-only — and is not traversed
//
// cmd/fodlint prints the findings as file:line diagnostics and exits 1
// when there is one. It runs in scripts/verify.sh tier 2 over every
// package, internal/lint included.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Diagnostic is one reported violation.
type Diagnostic struct {
	Pos     token.Position
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message)
}

// Check builds the program over pkgs, which must share one FileSet (Load
// guarantees this, and a single LoadDir package trivially satisfies it),
// checks every member of the //fod:hotpath closure and returns the
// findings sorted by position. A finding in a member that is not itself
// a root names the call chain from the root it was reached from.
func Check(pkgs []*Package) []Diagnostic {
	prog := BuildProgram(pkgs)
	closure := HotClosure(prog)
	var diags []Diagnostic
	for _, n := range prog.Nodes {
		if _, ok := closure[n]; !ok {
			continue
		}
		h := &hotFunc{pkg: n.Pkg, decl: n.Decl, diags: &diags}
		if closure[n] != nil {
			h.chain = hotChainSuffix(closure, n)
		}
		h.checkBody()
		for _, site := range hotSites(n) {
			if site.Dynamic && len(site.Callees) == 0 {
				h.report(site.Pos, "call through a func value with no visible target on the hot path (devirtualize or annotate //fod:coldpath)")
			}
		}
	}
	sort.SliceStable(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	return diags
}

// directiveLines returns the lines of file that carry the given fod
// directive as a line comment. Only the directive word counts; trailing
// prose is a human-facing justification.
func directiveLines(fset *token.FileSet, file *ast.File, directive string) map[int]bool {
	lines := map[int]bool{}
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
			word := text
			if i := strings.IndexAny(word, " \t—-"); i > 0 {
				word = word[:i]
			}
			if word == directive {
				lines[fset.Position(c.Pos()).Line] = true
			}
		}
	}
	return lines
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
