package obs

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTraceparentRoundTrip(t *testing.T) {
	id, ok := ParseTraceID("4bf92f3577b34da6a3ce929d0e0e4736")
	if !ok {
		t.Fatal("ParseTraceID rejected a valid id")
	}
	h := FormatTraceparent(id, 1)
	want := "00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000001-01"
	if h != want {
		t.Fatalf("FormatTraceparent = %q, want %q", h, want)
	}
	gotID, parent, ok := ParseTraceparent(h)
	if !ok || gotID != id || parent != "0000000000000001" {
		t.Fatalf("ParseTraceparent(%q) = (%s, %q, %v)", h, gotID, parent, ok)
	}
}

func TestParseTraceparentMalformed(t *testing.T) {
	bad := []string{
		"",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000001",     // missing flags
		"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000001-011", // too long
		"zz-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000001-01",  // non-hex version
		"ff-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000001-01",  // reserved version
		"00-00000000000000000000000000000000-0000000000000001-01",  // zero trace id
		"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01",  // zero parent
		"00-4BF92F3577B34DA6A3CE929D0E0E4736-0000000000000001-01",  // uppercase hex
		"00_4bf92f3577b34da6a3ce929d0e0e4736-0000000000000001-01",  // wrong separator
		"00-4bf92f3577b34da6a3ce929d0e0e47zz-0000000000000001-01",  // non-hex id
	}
	for _, h := range bad {
		if _, _, ok := ParseTraceparent(h); ok {
			t.Errorf("ParseTraceparent(%q) accepted malformed input", h)
		}
	}
}

func TestRandomTraceIDsDistinct(t *testing.T) {
	a, b := randomTraceID(), randomTraceID()
	if a.IsZero() || b.IsZero() || a == b {
		t.Fatalf("random ids not distinct non-zero: %s %s", a, b)
	}
}

// TestTraceSpanTree checks that spans started through contexts nest into
// the expected tree and still feed the registry histograms under their
// usual names.
func TestTraceSpanTree(t *testing.T) {
	reg := New()
	tc := NewTracer(TracerConfig{Slow: -1})
	tr := tc.Start("req", TraceID{}, "")
	ctx := ContextWithSpan(context.Background(), SpanCtx{Trace: tr})

	root := reg.StartSpan(ctx, "http.query")
	rctx := root.Attach(ctx)
	build := reg.StartSpan(rctx, "preprocess")
	child := build.Child("dist")
	child.End()
	build.End()
	root.End()
	tr.Finish(200, "")

	if got := reg.Histogram("span.preprocess.dist_ns").Count(); got != 1 {
		t.Fatalf("histogram span.preprocess.dist_ns count = %d, want 1", got)
	}
	kept := tc.Get(tr.ID())
	if kept == nil {
		t.Fatal("finished trace not retained with Slow < 0")
	}
	d := kept.Detail()
	if len(d.Tree) != 1 || d.Tree[0].Name != "http.query" {
		t.Fatalf("tree roots = %+v, want single http.query", d.Tree)
	}
	n := d.Tree[0]
	if len(n.Children) != 1 || n.Children[0].Name != "preprocess" {
		t.Fatalf("http.query children = %+v", n.Children)
	}
	if len(n.Children[0].Children) != 1 || n.Children[0].Children[0].Name != "preprocess.dist" {
		t.Fatalf("preprocess children = %+v", n.Children[0].Children)
	}
	if d.Spans != 3 {
		t.Fatalf("summary span count = %d, want 3", d.Spans)
	}
}

// TestTraceDisabledPath: with no tracer (nil) and no SpanCtx, the same
// call sites behave exactly as before.
func TestTraceDisabledPath(t *testing.T) {
	var tc *Tracer
	tr := tc.Start("req", TraceID{}, "")
	if tr != nil {
		t.Fatal("nil tracer started a trace")
	}
	tr.Finish(500, "boom") // must not panic
	reg := New()
	sp := reg.StartSpan(context.Background(), "phase")
	if sp.TraceID() != (TraceID{}) {
		t.Fatal("span without trace reports a trace id")
	}
	sp.End()
	if got := reg.Histogram("span.phase_ns").Count(); got != 1 {
		t.Fatalf("untraced span did not feed histogram: count = %d", got)
	}
}

func TestTailSampling(t *testing.T) {
	tc := NewTracer(TracerConfig{Buffer: 64, Slow: time.Hour, SampleN: -1})
	slow := tc.Start("slow", TraceID{}, "")
	slow.mu.Lock()
	slow.start = time.Now().Add(-2 * time.Hour)
	slow.mu.Unlock()
	slow.Finish(200, "")

	errTr := tc.Start("err", TraceID{}, "")
	errTr.Finish(500, "kaboom")

	for i := 0; i < 10; i++ {
		tc.Start(fmt.Sprintf("fast%d", i), TraceID{}, "").Finish(200, "")
	}

	if tc.Get(slow.ID()) == nil {
		t.Error("slow trace was not retained")
	}
	if tc.Get(errTr.ID()) == nil {
		t.Error("error trace was not retained")
	}
	if got := len(tc.Traces()); got != 2 {
		t.Errorf("retained %d traces, want 2 (fast ones sampled out)", got)
	}
	if k, d := tc.kept.Load(), tc.dropped.Load(); k != 2 || d != 10 {
		t.Errorf("kept/dropped = %d/%d, want 2/10", k, d)
	}
}

func TestTailSamplingOneInN(t *testing.T) {
	tc := NewTracer(TracerConfig{Buffer: 64, Slow: time.Hour, SampleN: 4})
	for i := 0; i < 16; i++ {
		tc.Start("fast", TraceID{}, "").Finish(200, "")
	}
	if got := len(tc.Traces()); got != 4 {
		t.Fatalf("retained %d of 16 fast traces with SampleN=4, want 4", got)
	}
}

func TestHistogramExemplar(t *testing.T) {
	var h Histogram
	id1, _ := ParseTraceID("4bf92f3577b34da6a3ce929d0e0e4736")
	id2, _ := ParseTraceID("aabbccddeeff00112233445566778899")
	h.ObserveTraced(100, id1)
	h.ObserveTraced(120, id2) // same bucket: last write wins
	h.ObserveTraced(1<<20, id1)
	h.ObserveNS(130) // untraced: must not clear the exemplar
	s := h.Snapshot()
	byLE := map[int64]Bucket{}
	for _, b := range s.Buckets {
		byLE[b.LE] = b
	}
	if b := byLE[127]; b.Trace != id2.String() {
		t.Errorf("bucket ≤127ns exemplar = %q, want %s", b.Trace, id2)
	}
	if b := byLE[1<<21-1]; b.Trace != id1.String() {
		t.Errorf("bucket ≤2^21-1 exemplar = %q, want %s", b.Trace, id1)
	}
	var plain Histogram
	plain.ObserveNS(100)
	for _, b := range plain.Snapshot().Buckets {
		if b.Trace != "" {
			t.Errorf("untraced histogram grew an exemplar: %+v", b)
		}
	}
}

// TestRingConcurrent hammers the ring with concurrent writers and readers;
// run under -race this is the lock-freedom proof for the trace buffer.
func TestRingConcurrent(t *testing.T) {
	tc := NewTracer(TracerConfig{Buffer: 8, Slow: -1})
	const writers, perWriter, readers = 8, 200, 4
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, tr := range tc.Traces() {
					tr.Summary()
					tr.Detail()
				}
			}
		}()
	}
	var writerWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			for i := 0; i < perWriter; i++ {
				tr := tc.Start(fmt.Sprintf("w%d-%d", w, i), TraceID{}, "")
				sp := &Span{tr: tr, id: tr.newSpanID(), start: time.Now()}
				sp.End()
				tr.Finish(200, "")
			}
		}(w)
	}
	writerWG.Wait()
	close(stop)
	wg.Wait()
	if got := tc.ring.Len(); got != 8 {
		t.Fatalf("ring holds %d traces, want full capacity 8", got)
	}
	seen := map[string]bool{}
	for _, tr := range tc.Traces() {
		if !strings.HasPrefix(tr.Name(), "w") {
			t.Fatalf("unexpected trace %q", tr.Name())
		}
		if seen[tr.ID().String()] {
			t.Fatalf("trace %s returned twice from one snapshot", tr.ID())
		}
		seen[tr.ID().String()] = true
	}
}

func TestRingOverwrite(t *testing.T) {
	r := NewRing(4)
	var last *Trace
	for i := 0; i < 10; i++ {
		last = &Trace{name: fmt.Sprintf("t%d", i)}
		r.Push(last)
	}
	got := r.Snapshot()
	if len(got) != 4 {
		t.Fatalf("snapshot length = %d, want 4", len(got))
	}
	if got[0] != last {
		t.Fatalf("newest trace = %q, want t9", got[0].Name())
	}
	for i, tr := range got {
		if want := fmt.Sprintf("t%d", 9-i); tr.Name() != want {
			t.Fatalf("snapshot[%d] = %q, want %q", i, tr.Name(), want)
		}
	}
}
