package repro_test

import (
	"context"
	"sync"
	"testing"

	"repro"
)

// TestQueryCompileConcurrent is the regression test for the Query.compile
// data race: one *Query shared by many concurrent Build calls must
// compile exactly once and yield identical indexes. Run under `go test
// -race` (tier 2) the old lazy unsynchronized write to q.compiled is a
// reported race; with the sync.Once guard it is clean.
func TestQueryCompileConcurrent(t *testing.T) {
	g := repro.Generate("path", 300, repro.GenOptions{Colors: 1, Seed: 7})
	q := repro.MustParseQuery("dist(x,y) > 2 & C0(y)", "x", "y")

	const goroutines = 16
	counts := make([]int, goroutines)
	errs := make([]error, goroutines)
	var start, done sync.WaitGroup
	start.Add(1)
	done.Add(goroutines)
	for i := 0; i < goroutines; i++ {
		go func(i int) {
			defer done.Done()
			start.Wait() // line up so the first compile really races
			ix, err := repro.Build(context.Background(), g, q)
			if err != nil {
				errs[i] = err
				return
			}
			counts[i] = ix.Count()
		}(i)
	}
	start.Done()
	done.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: Build: %v", i, err)
		}
	}
	for i := 1; i < goroutines; i++ {
		if counts[i] != counts[0] {
			t.Fatalf("goroutine %d: count %d != %d", i, counts[i], counts[0])
		}
	}
	if counts[0] == 0 {
		t.Fatal("query has no solutions; test is vacuous")
	}

	// A query that fails to compile must fail identically for everyone.
	bad := repro.MustParseQuery("C0(x)", "x", "x")
	var wg sync.WaitGroup
	badErrs := make([]error, 8)
	for i := range badErrs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, badErrs[i] = repro.Build(context.Background(), g, bad)
		}(i)
	}
	wg.Wait()
	for i, err := range badErrs {
		if err == nil {
			t.Fatalf("goroutine %d: duplicate-variable query compiled", i)
		}
	}
}
