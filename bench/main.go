// Command bench is the repository's benchmark: eight workloads, four of
// them gated by BENCHMARK.json, fourteen end-to-end metrics that every
// workload reports, per-layer metrics taken from outside by timing calls
// into each layer's public functions, and a traced run. See README.md in
// this directory and BENCHMARK.json at the repository root.
//
//	bench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//	bench --workload <name> --repeat <N>      median and quartiles over N seeds
//	bench --compare a.json b.json             apply each metric's bound
//	bench --spec                              print BENCHMARK.json from spec.go
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run; BENCHMARK.json lists the gated ones")
	seed := fs.Int64("seed", 1, "seed of the generated graphs, the probe tuples and the write sequence")
	seconds := fs.Float64("seconds", runSeconds, "how long the rounds of the run go on")
	trace := fs.Int("trace", 0, "1 runs the traced run and reports the per-layer metrics")
	out := fs.String("out", filepath.Join(".bench_build", "out"), "directory for <workload>.json and the trace file")
	repeat := fs.Int("repeat", 1, "run N times on seeds seed..seed+N-1 and print median and quartiles")
	cmp := fs.Bool("compare", false, "compare two output files given as arguments")
	smoke := fs.Bool("smoke", false, "tiny graphs, for testing the benchmark itself")
	spec := fs.Bool("spec", false, "print BENCHMARK.json as spec.go defines it")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *spec {
		fmt.Fprintln(stdout, benchmarkSpecJSON())
		return 0
	}
	if *cmp {
		return compareFiles(fs.Args(), stdout, stderr)
	}
	// One processor: the sandbox throttles a process that keeps both of its
	// CPUs busy (README.md has the measurement), and every number the
	// repository has recorded so far was taken on one. An explicit
	// GOMAXPROCS in the environment wins.
	if os.Getenv("GOMAXPROCS") == "" {
		runtime.GOMAXPROCS(1)
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "bench: unknown workload %q; the workloads are:\n", *name)
		for _, w := range workloads {
			fmt.Fprintf(stderr, "  %-13s %s\n", w.Name, w.Why)
		}
		return 2
	}
	if *seconds <= 0 || *repeat < 1 {
		fmt.Fprintln(stderr, "bench: --seconds must be positive and --repeat at least 1")
		return 2
	}

	var reps []*report
	for i := 0; i < *repeat; i++ {
		cfg := runConfig{w: w, seed: *seed + int64(i), seconds: *seconds, outDir: *out, smoke: *smoke}
		var rep *report
		var err error
		if *trace != 0 {
			rep, err = tracedRun(cfg)
		} else {
			rep, err = endToEndRun(cfg)
		}
		if err == nil {
			err = rep.finish()
		}
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.Name, err)
			return 1
		}
		if err := rep.write(*out); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		reps = append(reps, rep)
		if *repeat == 1 {
			rep.print(stdout)
		} else {
			fmt.Fprintf(stderr, "bench: %s seed %d done, %d of %d checks failed\n", w.Name, rep.Seed, rep.Failed, rep.Attempted)
		}
	}
	last := reps[len(reps)-1]
	if *repeat > 1 {
		s := summarize(reps)
		s.print(stdout, last.specs)
		if err := writeJSON(filepath.Join(*out, w.Name+".repeat.json"), s); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	fmt.Fprintln(stdout, last.resultLine())
	for _, r := range reps {
		if !r.Correct {
			fmt.Fprintf(stderr, "bench: %s seed %d: %d of %d checks failed\n", w.Name, r.Seed, r.Failed, r.Attempted)
			return 1
		}
	}
	return 0
}

func compareFiles(paths []string, stdout, stderr io.Writer) int {
	if len(paths) != 2 {
		fmt.Fprintln(stderr, "bench: --compare takes two output files: the parent's and the change's")
		return 2
	}
	a, err := readSummary(paths[0])
	if err == nil {
		var b *summary
		if b, err = readSummary(paths[1]); err == nil {
			if a.Workload != b.Workload {
				err = fmt.Errorf("%s is workload %s, %s is workload %s", paths[0], a.Workload, paths[1], b.Workload)
			} else if compare(stdout, a, b) > 0 {
				return 1
			}
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	return 0
}
