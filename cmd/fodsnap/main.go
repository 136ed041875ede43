// Command fodsnap builds, inspects and verifies index snapshots — the
// immutable on-disk form of a fully preprocessed Theorem 2.3 index
// (graph, starter lists and, for the core engine, neighborhood cover,
// kernels, distance recursion and skip pointers, for the lowdeg engine the
// sorted balls).
//
//	fodsnap build -gen grid:10000:1:42 -query "dist(x,y) > 2 & C0(y)" -vars x,y -out q.fodsnap
//	fodsnap build -graph road.txt -query "C1(x) & C1(y) & dist(x,y) > 4" -vars x,y -out road.fodsnap
//	fodsnap inspect q.fodsnap
//	fodsnap verify q.fodsnap
//
// build runs the pseudo-linear preprocessing once and persists the
// result; a server started with fodserve -snapshot-dir (or any caller of
// repro.LoadIndexSnapshot) then starts answering without rebuilding. The
// server takes a file only if it holds the engine its own -engine mode
// builds for the graph, so pass build the same -engine.
// inspect prints the file's format version, the metadata record, the
// section table — "partners" in it is the partner rows of the query's close
// pairs, which a file has from version 3 on — and the K of every skip table
// with the component it lies under. verify re-checks every
// checksum, restores the full index, and reports the restored shape; it
// exits non-zero on any corruption. Both read files of format version 1
// (CRC-64/ECMA), 2 (CRC-32C), 3 (2 with the partners section) and 4 (3 with
// one skip table a list that is asked, at the K it is asked with, where the
// older ones hold one at K = arity − 1 under every component); build writes
// version 4.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro"
	"repro/internal/graph"
	"repro/internal/snap"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "build":
		cmdBuild(os.Args[2:])
	case "inspect":
		cmdInspect(os.Args[2:])
	case "verify":
		cmdVerify(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  fodsnap build   -graph path | -gen class:n[:colors[:seed]]  -query "..." -vars x,y -out file [-parallel N] [-engine core|lowdeg|auto]
  fodsnap inspect file
  fodsnap verify  file`)
	os.Exit(2)
}

func cmdBuild(args []string) {
	fs := flag.NewFlagSet("fodsnap build", flag.ExitOnError)
	graphPath := fs.String("graph", "", "graph file in the text format")
	genSpec := fs.String("gen", "", "generate a graph: class:n[:colors[:seed]]")
	query := fs.String("query", "", "FO⁺ query source")
	vars := fs.String("vars", "", "comma-separated output variables")
	out := fs.String("out", "", "output snapshot path")
	parallel := fs.Int("parallel", 0, "build workers (0 = all CPUs)")
	engine := fs.String("engine", string(repro.EngineCore), "engine to build: core, lowdeg, or auto (what fodserve -engine will look for)")
	fs.Parse(args) // ExitOnError flag sets terminate on bad input

	if (*graphPath == "") == (*genSpec == "") {
		fail(fmt.Errorf("build: exactly one of -graph and -gen is required"))
	}
	if *query == "" || *vars == "" || *out == "" {
		fail(fmt.Errorf("build: -query, -vars and -out are required"))
	}
	var g *repro.Graph
	if *graphPath != "" {
		f, err := os.Open(*graphPath)
		if err != nil {
			fail(err)
		}
		g, err = graph.Read(f)
		f.Close() // input opened read-only; the Read error below is the one that matters
		if err != nil {
			fail(fmt.Errorf("%s: %w", *graphPath, err))
		}
	} else {
		var err error
		if g, err = parseGen(*genSpec); err != nil {
			fail(err)
		}
	}

	q, err := repro.ParseQuery(*query, strings.Split(*vars, ",")...)
	if err != nil {
		fail(err)
	}
	ix, err := repro.Build(context.Background(), g, q, repro.WithParallelism(*parallel), repro.WithEngine(repro.EngineKind(*engine)))
	if err != nil {
		fail(err)
	}
	if err := repro.SaveIndexSnapshot(ix, *out); err != nil {
		fail(err)
	}
	st, err := os.Stat(*out)
	if err != nil {
		fail(err)
	}
	fmt.Printf("fodsnap: wrote %s (%d bytes): graph n=%d m=%d, query %q, %s engine\n",
		*out, st.Size(), g.N(), g.M(), q.Canonical(), ix.Engine())
}

func cmdInspect(args []string) {
	if len(args) != 1 {
		usage()
	}
	data, err := os.ReadFile(args[0])
	if err != nil {
		fail(err)
	}
	f, err := snap.Parse(data)
	if err != nil {
		fail(err)
	}
	meta, err := snap.ReadMeta(f)
	if err != nil {
		fail(err)
	}
	fmt.Printf("snapshot %s (%d bytes, format v%d, %s checksums)\n", args[0], len(data), f.Version(), f.Checksum())
	fmt.Printf("  query      %s\n", meta.Query)
	fmt.Printf("  vars       %s\n", strings.Join(meta.Vars, ","))
	fmt.Printf("  shape      k=%d r=%d rho=%d guarded=%v\n", meta.K, meta.R, meta.LocalRadius, meta.Guarded)
	fmt.Printf("  locality   %q\n", meta.Locality)
	fmt.Printf("  graph      n=%d m=%d colors=%d fingerprint=%s\n",
		meta.GraphN, meta.GraphM, meta.GraphColors, meta.GraphFingerprint)
	fmt.Printf("  sections   %d\n", len(f.Sections()))
	for _, s := range f.Sections() {
		fmt.Printf("    %-20s %-5s off=%-10d len=%-10d crc=%016x\n", s.Name, s.Kind, s.Off, s.Len, s.CRC)
	}
	s, err := snap.DecodeTraced(context.Background(), f, nil)
	if err != nil {
		fail(err)
	}
	for i, clause := range s.Parts.Clauses {
		for j, c := range clause {
			if c.Skip != nil {
				fmt.Printf("  clause %d component %d: skip table K=%d (%d words)\n", s.Parts.LiveIdx[i], j, c.Skip.K, len(c.Skip.TableRow))
			}
		}
	}
}

func cmdVerify(args []string) {
	if len(args) != 1 {
		usage()
	}
	// LoadIndexSnapshot re-checks every checksum, revalidates all
	// structural invariants, and restores the full engine.
	ix, err := repro.LoadIndexSnapshot(args[0])
	if err != nil {
		fail(err)
	}
	st := ix.Stats()
	fmt.Printf("fodsnap: %s OK: arity %d, %s engine, %d cover bags (degree %d, radius %d), %d skip pointers in %d tables, %d+%d ball entries, %d partner cells\n",
		args[0], ix.Arity(), ix.Engine(), st.CoverBags, st.CoverDegree, st.CoverRadius, st.SkipPointers, st.SkipTables, st.BallEntries, st.CompEntries, st.PartnerCells)
}

// parseGen parses class:n[:colors[:seed]] (fodserve's -gen without the name).
func parseGen(spec string) (*repro.Graph, error) {
	parts := strings.Split(spec, ":")
	if len(parts) < 2 || len(parts) > 4 {
		return nil, fmt.Errorf("-gen %q: want class:n[:colors[:seed]]", spec)
	}
	n, err := strconv.Atoi(parts[1])
	if err != nil || n < 0 {
		return nil, fmt.Errorf("-gen %q: bad n %q", spec, parts[1])
	}
	opt := repro.GenOptions{}
	if len(parts) >= 3 {
		if opt.Colors, err = strconv.Atoi(parts[2]); err != nil || opt.Colors < 0 {
			return nil, fmt.Errorf("-gen %q: bad colors %q", spec, parts[2])
		}
	}
	if len(parts) == 4 {
		if opt.Seed, err = strconv.ParseInt(parts[3], 10, 64); err != nil {
			return nil, fmt.Errorf("-gen %q: bad seed %q", spec, parts[3])
		}
	}
	for _, c := range repro.GraphClasses() {
		if c == parts[0] {
			return repro.Generate(parts[0], n, opt), nil
		}
	}
	return nil, fmt.Errorf("-gen %q: unknown class %q (have %s)", spec, parts[0], strings.Join(repro.GraphClasses(), ", "))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "fodsnap:", err)
	os.Exit(1)
}
