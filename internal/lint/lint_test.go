package lint

import (
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// The golden-file suite: each testdata/src/<case> directory is a
// standalone package type-checked by LoadDir. Expected diagnostics are
// declared in the source itself with trailing `// want "regexp"`
// comments; the harness demands an exact line-for-line match in both
// directions (no missing findings, no extra ones).

var wantRe = regexp.MustCompile(`// want "([^"]+)"`)

// goldenWants extracts the want expectations of every file in the
// package, keyed by file:line.
func goldenWants(t *testing.T, pkg *Package) map[string]*regexp.Regexp {
	t.Helper()
	wants := map[string]*regexp.Regexp{}
	for _, f := range pkg.Syntax {
		filename := pkg.Fset.Position(f.Pos()).Filename
		data, err := os.ReadFile(filename)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			m := wantRe.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			re, err := regexp.Compile(m[1])
			if err != nil {
				t.Fatalf("%s:%d: bad want pattern %q: %v", filename, i+1, m[1], err)
			}
			wants[posKey(filename, i+1)] = re
		}
	}
	return wants
}

func posKey(file string, line int) string {
	return file + ":" + strconv.Itoa(line)
}

func runGolden(t *testing.T, dir, pkgPath string) {
	t.Helper()
	pkg, err := LoadDir(filepath.Join("testdata", "src", dir), pkgPath)
	if err != nil {
		t.Fatal(err)
	}
	diags := Check([]*Package{pkg})
	wants := goldenWants(t, pkg)
	seen := map[string]bool{}
	for _, d := range diags {
		k := posKey(d.Pos.Filename, d.Pos.Line)
		re, ok := wants[k]
		if !ok {
			t.Errorf("unexpected diagnostic: %s", d)
			continue
		}
		if !re.MatchString(d.Message) {
			t.Errorf("%s: message %q does not match want %q", k, d.Message, re)
		}
		seen[k] = true
	}
	for k, re := range wants {
		if !seen[k] {
			t.Errorf("%s: expected diagnostic matching %q, got none", k, re)
		}
	}
}

func TestHotPathGolden(t *testing.T) {
	runGolden(t, "hotpath", "example.com/hot")
}

// TestHotPathTransGolden exercises the call-graph closure: interface
// dispatch, address-taken func values, generics, coldpath pruning.
func TestHotPathTransGolden(t *testing.T) {
	runGolden(t, "hotpathtrans", "example.com/engine")
}
