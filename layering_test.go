package repro

import (
	"os"
	"os/exec"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// layer is DESIGN.md §6 as data: every package of the module with the
// layer it sits on. A package may import module packages of strictly
// lower layers only. "" is the root facade; cmd/* and examples/* are the
// top layer and need no entry. A package missing here fails the test —
// place it in the table and in DESIGN.md §6.
var layer = map[string]int{
	"internal/graph": 0, "internal/obs": 0, "internal/lint": 0, "internal/store": 0, "internal/par": 0,
	"internal/fo": 1, "internal/gen": 1, "internal/splitter": 1,
	"internal/cover": 2, "internal/wcol": 2, "internal/rel": 2,
	"internal/dist": 3, "internal/skip": 3,
	"internal/core":   4,
	"internal/lowdeg": 5, "internal/naive": 5, "internal/snap": 5,
	"internal/conform": 6,
	"":                 7,
	"internal/serve":   8,
}

// leafImports pins the self-contained leaf packages exactly: besides the
// standard library they import these module packages and nothing else.
var leafImports = map[string][]string{
	"internal/graph": nil,
	"internal/obs":   nil,
	"internal/fo":    {"internal/graph"},
	"internal/store": nil,
	// The algorithm packages import each other and the standard library:
	// what they measure leaves through Stats, never through internal/obs.
	"internal/par":      nil,
	"internal/splitter": {"internal/graph"},
	"internal/wcol":     {"internal/graph"},
	"internal/cover":    {"internal/graph"},
	"internal/skip":     {"internal/cover", "internal/graph"},
	"internal/dist":     {"internal/cover", "internal/graph", "internal/par", "internal/splitter"},
}

const topLayer = 9 // cmd/*, examples/*

// TestLayering enforces the package dependency order of DESIGN.md §6 on
// the non-test imports: leaf packages stay self-contained, nothing under
// internal/ but serve imports the root facade, and between the engines
// lowdeg → core is the only edge (core sits below lowdeg, so the reverse
// import would point upward).
func TestLayering(t *testing.T) {
	out, err := exec.Command("go", "list", "-f", `{{.ImportPath}} {{join .Imports ","}}`, "./...").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	inModule := func(importPath string) (string, bool) {
		if importPath == "repro" {
			return "", true
		}
		return strings.CutPrefix(importPath, "repro/")
	}
	layerOf := func(pkg string) (int, bool) {
		if strings.HasPrefix(pkg, "cmd/") || strings.HasPrefix(pkg, "examples/") {
			return topLayer, true
		}
		l, ok := layer[pkg]
		return l, ok
	}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		path, imports, _ := strings.Cut(line, " ")
		pkg, _ := inModule(path)
		from, ok := layerOf(pkg)
		if !ok {
			t.Errorf("package %q has no layer; add it to the table and to DESIGN.md §6", pkg)
			continue
		}
		var module []string
		for _, imp := range strings.Split(imports, ",") {
			dep, ok := inModule(imp)
			if !ok {
				continue // standard library
			}
			module = append(module, dep)
			if to, _ := layerOf(dep); to >= from {
				t.Errorf("%q (layer %d) imports %q (layer %d): imports must point to a lower layer", pkg, from, dep, to)
			}
		}
		if want, leaf := leafImports[pkg]; leaf && !slices.Equal(module, want) {
			t.Errorf("leaf package %q imports %v from the module, want exactly %v", pkg, module, want)
		}
	}
}

// docBudget is the most DESIGN.md and EXPERIMENTS.md may weigh together.
// They say what the system is and what was measured; the story of how it
// got there, PR by PR, belongs in CHANGES.md and git.
const docBudget = 80_000

// TestDocBudget keeps the two design documents short and free of history:
// together they stay within docBudget bytes, and DESIGN.md names no PR and
// says nothing "used to" be.
func TestDocBudget(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	experiments, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	if total := len(design) + len(experiments); total > docBudget {
		t.Errorf("DESIGN.md + EXPERIMENTS.md = %d bytes, want ≤ %d", total, docBudget)
	}
	history := regexp.MustCompile(`PR [0-9]|used to`)
	for i, line := range strings.Split(string(design), "\n") {
		if m := history.FindString(line); m != "" {
			t.Errorf("DESIGN.md:%d: %q — history goes to CHANGES.md", i+1, m)
		}
	}
}
