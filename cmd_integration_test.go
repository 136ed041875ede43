package repro_test

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildTool compiles one of the cmd/ binaries into a shared temp dir.
func buildTool(t *testing.T, name string) string {
	t.Helper()
	dir := t.TempDir()
	bin := filepath.Join(dir, name)
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+name)
	cmd.Env = os.Environ()
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building %s: %v\n%s", name, err, out)
	}
	return bin
}

func TestCLIGenerateAndEnumerate(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	fodgen := buildTool(t, "fodgen")
	fodenum := buildTool(t, "fodenum")

	gen := exec.Command(fodgen, "-class", "grid", "-n", "400", "-colors", "1", "-seed", "3")
	graphTxt, err := gen.Output()
	if err != nil {
		t.Fatalf("fodgen: %v", err)
	}
	if !bytes.HasPrefix(graphTxt, []byte("graph ")) {
		t.Fatalf("unexpected fodgen output prefix: %.40s", graphTxt)
	}

	enum := exec.Command(fodenum, "-query", "dist(x,y) > 2 & C0(y)", "-vars", "x,y", "-limit", "7")
	enum.Stdin = bytes.NewReader(graphTxt)
	out, err := enum.Output()
	if err != nil {
		t.Fatalf("fodenum: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if len(lines) != 7 {
		t.Fatalf("expected 7 solutions, got %d:\n%s", len(lines), out)
	}
	for _, ln := range lines {
		if len(strings.Fields(ln)) != 2 {
			t.Fatalf("malformed solution line %q", ln)
		}
	}

	// Count and test modes.
	count := exec.Command(fodenum, "-query", "C0(x)", "-vars", "x", "-count")
	count.Stdin = bytes.NewReader(graphTxt)
	cout, err := count.Output()
	if err != nil {
		t.Fatalf("fodenum -count: %v", err)
	}
	if strings.TrimSpace(string(cout)) == "0" {
		t.Fatal("expected a nonzero count of colored vertices")
	}

	next := exec.Command(fodenum, "-query", "C0(x)", "-vars", "x", "-next", "0")
	next.Stdin = bytes.NewReader(graphTxt)
	nout, err := next.Output()
	if err != nil {
		t.Fatalf("fodenum -next: %v", err)
	}
	if strings.TrimSpace(string(nout)) == "" {
		t.Fatal("expected a next solution")
	}
}

func TestCLIGenList(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	fodgen := buildTool(t, "fodgen")
	out, err := exec.Command(fodgen, "-list").Output()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(out), "grid") || !strings.Contains(string(out), "dense control") {
		t.Fatalf("unexpected -list output:\n%s", out)
	}
}

func TestCLIRelationalPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	fodrel := buildTool(t, "fodrel")
	sample, err := exec.Command(fodrel, "-sample").Output()
	if err != nil {
		t.Fatal(err)
	}
	run := exec.Command(fodrel, "-query", "Cites(x,y) & Seminal(y)", "-vars", "x,y")
	run.Stdin = bytes.NewReader(sample)
	out, err := run.Output()
	if err != nil {
		t.Fatal(err)
	}
	want := "1 0\n2 0\n4 2\n"
	if string(out) != want {
		t.Fatalf("fodrel output %q, want %q", out, want)
	}
}

// TestCLISnapVerifyFixtures: fodsnap verify accepts the committed snapshot
// fixtures of every format version — the current index, the one written
// before the skip build stopped materialising rows for vertices outside the
// starter list, and the ball form — restores each to what it was taken from
// (one skip table: the one an older file holds under x is not read), and
// inspect reports the version the file names, not the reader's, and the K of
// every table in it.
func TestCLISnapVerifyFixtures(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	fodsnap := buildTool(t, "fodsnap")
	fixture := func(name string) string { return filepath.Join("internal", "snap", "testdata", name+".fodsnap") }
	for suffix, header := range map[string]string{
		"": "format v1, CRC-64/ECMA checksums", ".v2": "format v2, CRC-32C checksums",
		".v3": "format v3, CRC-32C checksums", ".v4": "format v4, CRC-32C checksums",
	} {
		for _, name := range []string{"golden-grid64", "golden-grid64-allrows"} {
			out, err := exec.Command(fodsnap, "verify", fixture(name+suffix)).CombinedOutput()
			if err != nil {
				t.Fatalf("fodsnap verify %s: %v\n%s", name+suffix, err, out)
			}
			if !strings.Contains(string(out), " OK: arity 2, core engine") || !strings.Contains(string(out), "in 1 tables") {
				t.Fatalf("fodsnap verify %s: unexpected report %q", name+suffix, out)
			}
			// far2: a version-4 file has y's table and none under x.
			want := 2
			if suffix == ".v4" {
				want = 1
			}
			out, err = exec.Command(fodsnap, "inspect", fixture(name+suffix)).CombinedOutput()
			if err != nil || strings.Count(string(out), "skip table K=1 ") != want {
				t.Fatalf("fodsnap inspect %s: %v, want %d tables of K=1 in\n%s", name+suffix, err, want, out)
			}
		}
		// The ball form restores as the engine it was taken from.
		out, err := exec.Command(fodsnap, "verify", fixture("golden-bdeg64"+suffix)).CombinedOutput()
		if err != nil || !strings.Contains(string(out), " OK: arity 3, lowdeg engine") {
			t.Fatalf("fodsnap verify golden-bdeg64%s: %v, report %q", suffix, err, out)
		}
		out, err = exec.Command(fodsnap, "inspect", fixture("golden-bdeg64"+suffix)).CombinedOutput()
		if err != nil || !strings.Contains(string(out), header) || strings.Contains(string(out), "skip table K") {
			t.Fatalf("fodsnap inspect golden-bdeg64%s: %v, want %q and no skip table in\n%s", suffix, err, header, out)
		}
	}
}

// TestCLILintHotPathFinding drives fodlint's exit contract, the one fact
// tier 2 relies on: exit 0 on a clean module, exit 1 on a finding, named
// by file:line with the call chain from its //fod:hotpath root. Both
// modules are scratch ones; the dirty one differs only in what the
// helper does.
func TestCLILintHotPathFinding(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	fodlint := buildTool(t, "fodlint")
	module := func(helper string) string {
		mod := t.TempDir()
		for name, body := range map[string]string{
			"go.mod": "module scratch\n\ngo 1.22\n",
			"a.go": "package scratch\n\n" +
				"import \"fmt\"\n\n" +
				"var _ = fmt.Sprint\n\n" +
				"// Next is the hot root.\n//\n//fod:hotpath\n" +
				"func Next(x int) int { return helper(x) }\n\n" +
				"func helper(x int) int {\n" + helper + "\n}\n",
		} {
			if err := os.WriteFile(filepath.Join(mod, name), []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return mod
	}

	clean := module("\treturn 2 * x")
	if out, err := exec.Command(fodlint, "-C", clean, "./...").CombinedOutput(); err != nil {
		t.Fatalf("fodlint on a clean module: %v\n%s", err, out)
	}

	dirty := module("\t_ = fmt.Sprint(x)\n\treturn 2 * x")
	out, err := exec.Command(fodlint, "-C", dirty, "./...").CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("fodlint on a hot-path finding: err = %v, want exit status 1\n%s", err, out)
	}
	want := "a.go:13:6: helper: calls fmt.Sprint on the hot path"
	chain := "[hot closure: scratch.Next → scratch.helper]"
	if !strings.Contains(string(out), want) || !strings.Contains(string(out), chain) {
		t.Fatalf("fodlint output does not name %q with %q:\n%s", want, chain, out)
	}
}
