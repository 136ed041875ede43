package serve

import (
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
	"time"

	"repro"
	"repro/internal/obs"
)

// The trace checks are the twin of the metrics-overhead guard: tracing
// must cost one branch per call site when disabled
// (TestTraceDisabledOverheadGuard, a timing ratio, tier 3), and even when a
// request trace is live the per-answer loop (Iterator.Next, Index.Test)
// must stay at 0 allocs/op — spans wrap pages and phases, never answers
// (the two deterministic pins below, tier 1).

// buildTracedIndex builds Example 2 on grid-2000 with a live trace in the
// build context and the tracer's instruments registered — the serve
// layer's worst case.
func buildTracedIndex(t *testing.T) (*repro.Index, *obs.Trace, int) {
	t.Helper()
	reg := obs.New()
	tracer := obs.NewTracer(obs.TracerConfig{Buffer: 16, Slow: -1})
	tracer.Register(reg)
	tr := tracer.Start("trace-guard", obs.TraceID{}, "")
	ctx := obs.ContextWithSpan(context.Background(), obs.SpanCtx{Trace: tr})
	g := repro.Generate("grid", 2000, repro.GenOptions{Seed: 7, Colors: 1})
	q := repro.MustParseQuery("dist(x,y) > 2 & C0(y)", "x", "y")
	ix, err := repro.Build(ctx, g, q, repro.WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	return ix, tr, g.N()
}

// TestTracedIteratorNextZeroAllocs pins the constant-delay step at
// 0 allocs/op while tracing is ENABLED: the trace wraps the request, the
// enumeration loop never sees it.
func TestTracedIteratorNextZeroAllocs(t *testing.T) {
	ix, tr, _ := buildTracedIndex(t)
	it := ix.Iterator()
	if _, ok := it.Next(); !ok {
		t.Fatal("traced index produced no solutions")
	}
	zero := make([]int, ix.Arity())
	allocs := testing.AllocsPerRun(2000, func() {
		if _, ok := it.Next(); !ok {
			it.Seek(zero)
		}
	})
	tr.Finish(200, "")
	if allocs != 0 {
		t.Errorf("Iterator.Next with tracing enabled = %.2f allocs/op, want 0", allocs)
	}
}

// TestTracedEngineTestZeroAllocs does the same for the O(1) membership
// test of Corollary 2.4.
func TestTracedEngineTestZeroAllocs(t *testing.T) {
	ix, tr, n := buildTracedIndex(t)
	a := make([]int, ix.Arity())
	v := 0
	allocs := testing.AllocsPerRun(2000, func() {
		a[0], a[1] = v%n, (v*31)%n
		ix.Test(a)
		v += 17
	})
	tr.Finish(200, "")
	if allocs != 0 {
		t.Errorf("Index.Test with tracing enabled = %.2f allocs/op, want 0", allocs)
	}
}

// TestTraceDisabledOverheadGuard checks the one-branch contract end to
// end: a server with tracing disabled must serve an enumeration page no
// slower (beyond noise) than the same server paying for trace start, span
// recording, tail sampling and exemplars on every request.
func TestTraceDisabledOverheadGuard(t *testing.T) {
	if os.Getenv("GUARD") == "" {
		t.Skip("set GUARD=1 to run the timing guards (scripts/verify.sh 3)")
	}
	mkServer := func(tracer *obs.Tracer) *Server {
		return NewServer(Config{
			Graphs: map[string]*repro.Graph{
				"g": repro.Generate("grid", 900, repro.GenOptions{Colors: 2, Seed: 11}),
			},
			Metrics: obs.New(),
			Tracer:  tracer,
		})
	}
	plain := mkServer(nil)
	traced := mkServer(obs.NewTracer(obs.TracerConfig{Buffer: 64, Slow: -1}))

	measure := func(s *Server) time.Duration {
		h := s.Handler()
		ts := httptest.NewServer(h)
		defer ts.Close()
		qr := registerQuery(t, ts.URL, "g", "dist(x,y) <= 2", "x", "y")
		url := "/v1/enumerate?query=" + qr.ID + "&limit=100"
		req := httptest.NewRequest("GET", url, nil)
		run := func() {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				t.Fatalf("enumerate: %d: %s", rec.Code, rec.Body.String())
			}
		}
		const perRound = 64
		run() // warm the index cache
		best := time.Duration(1<<63 - 1)
		for round := 0; round < 5; round++ {
			start := time.Now()
			for i := 0; i < perRound; i++ {
				run()
			}
			if d := time.Since(start); d < best {
				best = d
			}
		}
		return best / perRound
	}
	enabled := measure(traced)
	disabled := measure(plain)
	t.Logf("enumerate page per request: disabled %v, enabled %v", disabled, enabled)
	// The disabled path does a strict subset of the enabled path's work,
	// so beyond scheduler noise it must not be slower. The absolute term
	// absorbs JSON-encoding jitter.
	if disabled > enabled*3/2+20*time.Microsecond {
		t.Fatalf("trace-disabled request (%v) slower than traced (%v) beyond noise — the one-branch disabled path regressed", disabled, enabled)
	}
}
