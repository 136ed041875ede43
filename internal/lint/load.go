package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, parsed and type-checked package.
type Package struct {
	PkgPath string
	Fset    *token.FileSet
	Syntax  []*ast.File
	Types   *types.Package
	Info    *types.Info
}

// listPackage is the subset of `go list -json` output the loader needs.
type listPackage struct {
	Dir        string
	ImportPath string
	GoFiles    []string
	Imports    []string
}

// Load lists the packages matching patterns (relative to dir, e.g.
// "./..."), parses and fully type-checks them. It is the go/packages-style
// loader of the driver, built from the standard library alone: `go list`
// supplies file sets and the module import graph, module-internal imports
// are resolved from the already-checked set, and everything else (the
// standard library) is type-checked on demand by go/importer's source
// importer.
func Load(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{"list", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("lint: go list: %v\n%s", err, stderr.String())
	}
	var listed []*listPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for dec.More() {
		p := &listPackage{}
		if err := dec.Decode(p); err != nil {
			return nil, fmt.Errorf("lint: decoding go list output: %v", err)
		}
		if len(p.GoFiles) > 0 {
			listed = append(listed, p)
		}
	}

	fset := token.NewFileSet()
	ld := &loader{
		fset:    fset,
		byPath:  map[string]*listPackage{},
		checked: map[string]*Package{},
		source:  importer.ForCompiler(fset, "source", nil),
	}
	for _, p := range listed {
		ld.byPath[p.ImportPath] = p
	}
	var pkgs []*Package
	for _, p := range listed {
		cp, err := ld.check(p)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, cp)
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].PkgPath < pkgs[j].PkgPath })
	return pkgs, nil
}

// loader type-checks the module packages in dependency order.
type loader struct {
	fset    *token.FileSet
	byPath  map[string]*listPackage
	checked map[string]*Package
	source  types.Importer
	stack   []string
}

// Import implements types.Importer: module-internal paths resolve to
// already-checked packages (the check order guarantees availability),
// everything else falls through to the source importer.
func (ld *loader) Import(path string) (*types.Package, error) {
	if p, ok := ld.checked[path]; ok {
		return p.Types, nil
	}
	if lp, ok := ld.byPath[path]; ok {
		cp, err := ld.check(lp)
		if err != nil {
			return nil, err
		}
		return cp.Types, nil
	}
	return ld.source.Import(path)
}

func (ld *loader) check(p *listPackage) (*Package, error) {
	if cp, ok := ld.checked[p.ImportPath]; ok {
		return cp, nil
	}
	for _, on := range ld.stack {
		if on == p.ImportPath {
			return nil, fmt.Errorf("lint: import cycle through %s", p.ImportPath)
		}
	}
	ld.stack = append(ld.stack, p.ImportPath)
	defer func() { ld.stack = ld.stack[:len(ld.stack)-1] }()

	for _, dep := range p.Imports {
		if lp, ok := ld.byPath[dep]; ok {
			if _, err := ld.check(lp); err != nil {
				return nil, err
			}
		}
	}
	files := make([]string, len(p.GoFiles))
	for i, f := range p.GoFiles {
		files[i] = filepath.Join(p.Dir, f)
	}
	cp, err := checkFiles(ld.fset, ld, p.ImportPath, files)
	if err != nil {
		return nil, err
	}
	ld.checked[p.ImportPath] = cp
	return cp, nil
}

// LoadDir parses and type-checks all .go files of a single directory as a
// package with the given import path. It is the loader of the golden-file
// test suite: testdata packages are outside the module, so `go list`
// never sees them, and they may import only the standard library.
func LoadDir(dir, pkgPath string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			files = append(files, filepath.Join(dir, e.Name()))
		}
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no .go files in %s", dir)
	}
	fset := token.NewFileSet()
	return checkFiles(fset, importer.ForCompiler(fset, "source", nil), pkgPath, files)
}

func checkFiles(fset *token.FileSet, imp types.Importer, pkgPath string, files []string) (*Package, error) {
	var syntax []*ast.File
	for _, f := range files {
		af, err := parser.ParseFile(fset, f, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("lint: %v", err)
		}
		syntax = append(syntax, af)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: imp}
	tp, err := conf.Check(pkgPath, fset, syntax, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %v", pkgPath, err)
	}
	return &Package{
		PkgPath: pkgPath,
		Fset:    fset,
		Syntax:  syntax,
		Types:   tp,
		Info:    info,
	}, nil
}
