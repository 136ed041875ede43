package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterConcurrent(t *testing.T) {
	r := New()
	c := r.Counter("bumps")
	const workers, per = 16, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Load(); got != workers*per {
		t.Fatalf("counter %d, want %d", got, workers*per)
	}
	// Get-or-create must return the same instrument.
	if r.Counter("bumps") != c {
		t.Fatal("Counter(name) did not return the existing instrument")
	}
}

func TestGauge(t *testing.T) {
	r := New()
	var g Gauge
	r.RegisterGauge("depth", &g)
	g.Set(7)
	g.Add(-3)
	g.Inc()
	g.Inc()
	g.Dec()
	if g.Load() != 5 {
		t.Fatalf("gauge %d, want 5", g.Load())
	}
	if got := r.Snapshot().Gauges["depth"]; got != 5 {
		t.Fatalf("registered gauge exported %d, want 5", got)
	}
}

func TestNilRegistryIsSink(t *testing.T) {
	var r *Registry
	r.Counter("x").Add(5)
	r.RegisterGauge("y", &Gauge{})
	r.Histogram("z").Observe(time.Second)
	sp := r.Span("phase")
	if d := sp.End(); d < 0 {
		t.Fatal("nil-registry span returned negative duration")
	}
	if s := r.Snapshot(); len(s.Counters) != 0 {
		t.Fatal("nil registry produced instruments")
	}
	var nilSpan *Span
	if nilSpan.End() != 0 || nilSpan.Path() != "" {
		t.Fatal("nil span misbehaved")
	}
	r.RegisterCounter("c", &Counter{})
	r.Publish("nil-reg") // must not panic
}

func TestSpanNesting(t *testing.T) {
	r := New()
	root := r.Span("preprocess")
	for _, phase := range []string{"dist", "cover", "kernel", "starter", "skip"} {
		sp := root.Child(phase)
		time.Sleep(time.Millisecond)
		if d := sp.End(); d < time.Millisecond {
			t.Fatalf("span %s measured %v", phase, d)
		}
	}
	if d := root.End(); d < 5*time.Millisecond {
		t.Fatalf("root span measured %v, want ≥ 5ms", d)
	}
	s := r.Snapshot()
	for _, name := range []string{
		"span.preprocess_ns",
		"span.preprocess.dist_ns",
		"span.preprocess.cover_ns",
		"span.preprocess.kernel_ns",
		"span.preprocess.starter_ns",
		"span.preprocess.skip_ns",
	} {
		h, ok := s.Histograms[name]
		if !ok || h.Count != 1 {
			t.Fatalf("missing span histogram %q (snapshot names: %v)", name, r.Names())
		}
	}
	if s.Counters["span.preprocess.dist_count"] != 1 {
		t.Fatal("span counter not bumped")
	}
	// Children sum to less than the root.
	var childSum int64
	for name, h := range s.Histograms {
		if strings.HasPrefix(name, "span.preprocess.") {
			childSum += h.Sum
		}
	}
	if root := s.Histograms["span.preprocess_ns"].Sum; childSum > root {
		t.Fatalf("children (%d ns) exceed root (%d ns)", childSum, root)
	}
}

func TestRegisterCounterExports(t *testing.T) {
	r := New()
	var own Counter
	own.Add(42)
	r.RegisterCounter("serve.cache.hits", &own)
	if got := r.Snapshot().Counters["serve.cache.hits"]; got != 42 {
		t.Fatalf("registered counter exported %d, want 42", got)
	}
	own.Add(1)
	if got := r.Snapshot().Counters["serve.cache.hits"]; got != 43 {
		t.Fatalf("registered counter is not live: %d", got)
	}
}

func TestWriteJSONRoundTrip(t *testing.T) {
	r := New()
	r.Counter("a").Add(3)
	var b Gauge
	b.Set(-7)
	r.RegisterGauge("b", &b)
	r.Histogram("c_ns").ObserveNS(100)
	var sb strings.Builder
	if err := r.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	var s Snapshot
	if err := json.Unmarshal([]byte(sb.String()), &s); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, sb.String())
	}
	if s.Counters["a"] != 3 || s.Gauges["b"] != -7 || s.Histograms["c_ns"].Count != 1 {
		t.Fatalf("round trip mismatch: %+v", s)
	}
}

func TestPublishRebind(t *testing.T) {
	r1 := New()
	r1.Counter("x").Add(1)
	r1.Publish("obs-test-rebind")
	r2 := New()
	r2.Counter("x").Add(2)
	r2.Publish("obs-test-rebind") // must not panic, rebinds to r2
}

func TestServeDebug(t *testing.T) {
	r := New()
	r.Counter("hits").Add(9)
	r.Histogram("lat_ns").ObserveNS(1234)
	ln, err := ServeDebug("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	base := fmt.Sprintf("http://%s", ln.Addr())

	get := func(path string) string {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	if vars := get("/debug/vars"); !strings.Contains(vars, `"repro"`) {
		t.Fatalf("/debug/vars missing published registry:\n%.400s", vars)
	}
	metrics := get("/debug/metrics")
	var s Snapshot
	if err := json.Unmarshal([]byte(metrics), &s); err != nil {
		t.Fatalf("/debug/metrics is not JSON: %v", err)
	}
	if s.Counters["hits"] != 9 || s.Histograms["lat_ns"].Count != 1 {
		t.Fatalf("unexpected /debug/metrics snapshot: %+v", s)
	}
	if idx := get("/debug/pprof/"); !strings.Contains(idx, "goroutine") {
		t.Fatalf("/debug/pprof/ index unexpected:\n%.200s", idx)
	}
}
