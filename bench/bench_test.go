package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/serve"
)

// benchmarkJSON is the shape of ../BENCHMARK.json that the driver reads.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

// BENCHMARK.json repeats spec.go for the driver; the two must agree.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	b := readBenchmarkJSON(t)
	var gated []workloadSpec
	for _, w := range workloads {
		if w.Gated {
			gated = append(gated, w)
		}
	}
	if len(b.Workloads) != len(gated) {
		t.Fatalf("BENCHMARK.json has %d workloads, spec.go gates %d", len(b.Workloads), len(gated))
	}
	for i, w := range gated {
		if b.Workloads[i].Name != w.Name || b.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), spec.go %q (%q)", i, b.Workloads[i].Name, b.Workloads[i].Why, w.Name, w.Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if b.RunSeconds != runSeconds {
		t.Errorf("run_seconds = %d, spec.go says %d", b.RunSeconds, runSeconds)
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, spec.go %d", len(b.EndToEnd), len(endToEnd))
	}
	sawSetup := false
	for i, m := range endToEnd {
		got := b.EndToEnd[i]
		if got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better || got.Bound != m.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, spec.go %+v", i, got, m)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		sawSetup = sawSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !sawSetup {
		t.Error("setup_s (s, lower) is missing from the end-to-end metrics")
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, spec.go %d", len(b.PerLayer), len(perLayer))
	}
	seen := map[string]bool{}
	for i, m := range perLayer {
		got := b.PerLayer[i]
		if got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, spec.go %+v", i, got, m)
		}
		if m.Moves == "" {
			t.Errorf("%s: names no end-to-end metric it should move", m.Name)
		}
	}
	for _, m := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		if seen[m.Name] {
			t.Errorf("metric name %s is used twice", m.Name)
		}
		seen[m.Name] = true
	}
	if len(b.Paths) != 1 || b.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", b.Paths)
	}
}

// TestSmoke runs every workload end to end and traced, on tiny graphs, and
// checks that each run prints every metric of its spec exactly once with
// its unit, ends with the driver's result line, and fails no check.
func TestSmoke(t *testing.T) {
	out := t.TempDir()
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			specs := endToEnd
			if trace == "1" {
				specs = perLayer
			}
			var stdout, stderr bytes.Buffer
			code := realMain([]string{"--workload", w.Name, "--seed", "3", "--seconds", "0.5", "--trace", trace, "--smoke", "--out", out}, &stdout, &stderr)
			if code != 0 {
				t.Fatalf("%s --trace %s: exit %d\n%s", w.Name, trace, code, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			printed := map[string]int{}
			for _, line := range lines[:len(lines)-1] {
				f := strings.Fields(line)
				if len(f) != 4 || f[0] != w.Name {
					t.Fatalf("%s: malformed metric line %q", w.Name, line)
				}
				printed[f[1]+" "+f[3]]++
			}
			for _, m := range specs {
				if printed[m.Name+" "+m.Unit] != 1 {
					t.Errorf("%s --trace %s: metric %s (%s) printed %d times", w.Name, trace, m.Name, m.Unit, printed[m.Name+" "+m.Unit])
				}
			}
			var res struct {
				Correct   bool `json:"correct"`
				Attempted int  `json:"attempted"`
				Failed    int  `json:"failed"`
				Metrics   map[string]struct {
					Value *float64 `json:"value"`
					Unit  string   `json:"unit"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s: last line is not the result object: %v", w.Name, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s --trace %s: correct=%v attempted=%d failed=%d", w.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(specs) {
				t.Errorf("%s --trace %s: result line has %d metrics, want %d", w.Name, trace, len(res.Metrics), len(specs))
			}
			for _, m := range specs {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Value == nil || got.Unit != m.Unit {
					t.Errorf("%s --trace %s: result line lacks %s (%s)", w.Name, trace, m.Name, m.Unit)
				} else if trace == "0" && *got.Value == 0 {
					t.Errorf("%s: end-to-end metric %s is 0", w.Name, m.Name)
				}
			}
		}
		// The span file: self times must add up to the traced time.
		raw, err := os.ReadFile(filepath.Join(out, w.Name+".trace.json"))
		if err != nil {
			t.Fatal(err)
		}
		var tf traceFile
		if err := json.Unmarshal(raw, &tf); err != nil {
			t.Fatal(err)
		}
		var self, total int64
		for _, v := range tf.SelfNS {
			self += v
		}
		for _, v := range tf.TotalNS {
			total += v
		}
		if len(tf.Spans) == 0 || math.Abs(float64(self-total)) > 0.05*float64(total) {
			t.Errorf("%s: %d spans, self times sum to %d ns, traced time is %d ns", w.Name, len(tf.Spans), self, total)
		}
	}
}

// decodePage scans the solutions array by hand; it must agree with
// encoding/json on the server's indented envelope, on a compact one, and
// on an empty page.
func TestDecodePage(t *testing.T) {
	want := serve.EnumerateResponse{ID: "q1", Version: 3, Solutions: [][]int{{0, 17}, {0, 205}, {12, 9}}, Count: 3, Limit: 5, NextCursor: "abc", Done: false}
	indented, _ := json.MarshalIndent(map[string]any{"data": want, "trace_id": "t"}, "", "  ")
	compact, _ := json.Marshal(map[string]any{"data": want})
	for _, raw := range [][]byte{indented, compact} {
		got, flat, err := decodePage(raw, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got.ID != want.ID || got.Version != 3 || got.Count != 3 || got.Limit != 5 || got.NextCursor != "abc" || got.Done {
			t.Errorf("decoded fields %+v, want %+v", got, want)
		}
		if fmt.Sprint(flat) != "[0 17 0 205 12 9]" {
			t.Errorf("decoded tuples %v", flat)
		}
	}
	empty, _ := json.MarshalIndent(map[string]any{"data": serve.EnumerateResponse{ID: "q1", Solutions: [][]int{}, Done: true}}, "", "  ")
	got, flat, err := decodePage(empty, []int{9, 9}[:0])
	if err != nil || len(flat) != 0 || !got.Done {
		t.Errorf("empty page: %+v %v %v", got, flat, err)
	}
	if _, _, err := decodePage([]byte(`{"error":{"code":"version_gone","message":"m"}}`), nil); err == nil {
		t.Error("an error envelope decoded without error")
	}
}

func TestFastDecile(t *testing.T) {
	rates := make([]float64, 41)
	for i := range rates {
		rates[i] = float64(100 + i) // 100..140
	}
	if got := fastDecile(rates); got != 136 {
		t.Errorf("fastDecile = %v, want 136", got)
	}
	// A tenth of the slices being disturbed must not move it much, nine
	// tenths must.
	rates[0], rates[1], rates[2], rates[3] = 1, 1, 1, 1
	if got := fastDecile(rates); got != 136 {
		t.Errorf("fastDecile with four stalled slices = %v, want 136", got)
	}
	if got := fastest([]float64{9, 3, 7}); got != 3 {
		t.Errorf("fastest of three = %v, want 3", got)
	}
}

func TestTailPercentile(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	v, pct := tailPercentile(xs)
	if v != 990 || pct != 99 {
		t.Errorf("tailPercentile(1..1000) = %v at p%v, want 990 at p99", v, pct)
	}
	beyond := 0
	for _, x := range xs {
		if x > v {
			beyond++
		}
	}
	if beyond != 10 {
		t.Errorf("%d samples beyond the reported percentile, want 10", beyond)
	}
	if v, pct := tailPercentile([]float64{5, 1, 3}); v != 3 || pct != 50 {
		t.Errorf("tailPercentile of three = %v at p%v, want the median at p50", v, pct)
	}
}

func TestBuildExponent(t *testing.T) {
	if got := buildExponent(100, 400, 16000, 64000); math.Abs(got-1) > 1e-12 {
		t.Errorf("linear growth reads %v, want 1", got)
	}
	if got := buildExponent(100, 1600, 4000, 16000); math.Abs(got-2) > 1e-12 {
		t.Errorf("quadratic growth reads %v, want 2", got)
	}
}

func TestSpanSelfTime(t *testing.T) {
	ms := func(n int64) int64 { return n * int64(time.Millisecond) }
	spans := []span{
		{ID: 1, Name: "request", Start: 0, End: ms(10)},
		{ID: 2, Parent: 1, Name: "serve", Start: ms(1), End: ms(8)},
		{ID: 3, Parent: 2, Name: "engine", Start: ms(2), End: ms(5)},
		{ID: 4, Name: "request", Start: ms(20), End: ms(24)},
	}
	self := selfTimes(spans)
	want := map[string]time.Duration{"request": 7 * time.Millisecond, "serve": 4 * time.Millisecond, "engine": 3 * time.Millisecond}
	for name, d := range want {
		if self[name] != d {
			t.Errorf("self time of %s = %v, want %v", name, self[name], d)
		}
	}
	var sum time.Duration
	for _, d := range self {
		sum += d
	}
	if sum != 14*time.Millisecond {
		t.Errorf("self times sum to %v, want the 14ms of the two root spans", sum)
	}

	rec := newRecorder()
	rec.nest([]string{"a", "b", "c"}, []time.Duration{10, 20, 5}) // b outlasts a: cut to fit
	self = selfTimes(rec.spans)
	if self["a"] != 0 || self["b"] != 5 || self["c"] != 5 {
		t.Errorf("nest cut wrongly: %v", self)
	}
}

func TestCompareVerdicts(t *testing.T) {
	mk := func(vals map[string][]float64) *summary {
		s := &summary{Workload: "w", Metrics: map[string]summarized{}}
		for name, v := range vals {
			s.Metrics[name] = summarized{Unit: "x", Values: v, Quartiles: quartiles(v), Spread: spread(v)}
		}
		return s
	}
	a := mk(map[string][]float64{
		"setup_s":       {1, 1.01, 0.99, 1, 1},        // bound 25 %
		"answers_per_s": {100, 101, 99, 100, 100},     // higher is better
		"page_p10_us":   {10, 10.1, 9.9, 10, 10},      // lower is better
		"probe_ns":      {100, 160, 60, 100, 140},     // noisy
		"seek_ns":       {100, 101, 99, 100, 100},     // stays
		"index_heap_mb": {50, 50.1, 49.9, 50, 50},     // bound 5 %
		"peak_rss_mb":   {500, 900, 300, 500, 700},    // noisy but separated below
		"delay_drift":   {1, 1.001, 0.999, 1, 1.0005}, // tiny move
	})
	b := mk(map[string][]float64{
		"setup_s":       {1.1, 1.11, 1.09, 1.1, 1.1},
		"answers_per_s": {50, 51, 49, 50, 50},
		"page_p10_us":   {5, 5.1, 4.9, 5, 5},
		"probe_ns":      {120, 180, 70, 110, 150},
		"seek_ns":       {100, 101, 99, 100, 100},
		"index_heap_mb": {56, 56.1, 55.9, 56, 56},
		"peak_rss_mb":   {100, 200, 150, 120, 180},
		"delay_drift":   {1.01, 1.011, 1.009, 1.01, 1.0105},
	})
	var out bytes.Buffer
	regressed := compare(&out, a, b)
	want := map[string]string{
		"setup_s": "unchanged", "answers_per_s": "regressed", "page_p10_us": "improved", "probe_ns": "unresolved",
		"seek_ns": "unchanged", "index_heap_mb": "regressed", "peak_rss_mb": "improved", "delay_drift": "unchanged",
	}
	for name, verdict := range want {
		if !strings.Contains(out.String(), "w "+name+" "+verdict+":") {
			t.Errorf("%s: want verdict %s in\n%s", name, verdict, out.String())
		}
	}
	if regressed != 2 {
		t.Errorf("compare counted %d regressions, want 2", regressed)
	}
}
