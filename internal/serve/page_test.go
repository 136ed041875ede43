package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"

	"repro"
)

// FuzzAppendJSONString: the string helper of the page writer agrees with
// encoding/json on every input — plain strings by its own loop, anything
// with quotes, backslashes, <>&, control bytes, non-ASCII or broken UTF-8 by
// falling back rather than escaping a second way.
func FuzzAppendJSONString(f *testing.F) {
	for _, s := range []string{
		"", "3f9a0c17e2b44d10", "djIgM2Y5YSAwIDE3IDQy", "with space", `q"uote`, `back\slash`,
		"<script>&amp;</script>", "tab\there", "nul\x00", "\x1f", "\x7f", "héllo", "日本", "  ",
		"\xff\xfe broken", "a\xc0\xafb",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		got := appendJSONString([]byte("x: "), s)
		if !bytes.Equal(got, append([]byte("x: "), want...)) {
			t.Fatalf("appendJSONString(%q) = %s, json.Marshal = %s", s, got[3:], want)
		}
	})
}

// TestEnvelopeEncodingFailure: a payload encoding/json refuses is answered
// with the fixed internal-error body — as JSON, like every other response.
func TestEnvelopeEncodingFailure(t *testing.T) {
	rec := httptest.NewRecorder()
	writeEnvelope(rec, http.StatusOK, envelope{Data: math.NaN()})
	if rec.Code != http.StatusInternalServerError || rec.Header().Get("Content-Type") != "application/json" {
		t.Fatalf("status %d, content type %q", rec.Code, rec.Header().Get("Content-Type"))
	}
	if c := errCode(t, rec.Body.Bytes()); c != ErrInternal {
		t.Fatalf("error code %q, want %q", c, ErrInternal)
	}
}

// bigFar registers the far query on the 3600-vertex grid of testServer:
// about 13 million answers, so a page of any size is a prefix of the stream.
func bigFar(t *testing.T, base string) QueryResponse {
	return registerQuery(t, base, "big", "dist(x,y) > 2 & C0(y)", "x", "y")
}

// firstAnswers is the reference for the first n tuples of a stream.
func firstAnswers(t *testing.T, g *repro.Graph, src string, vars []string, n int) [][]int {
	t.Helper()
	ix, err := repro.Build(context.Background(), g, repro.MustParseQuery(src, vars...))
	if err != nil {
		t.Fatal(err)
	}
	out := [][]int{}
	ix.Enumerate(func(sol []int) bool {
		out = append(out, append([]int(nil), sol...))
		return len(out) < n
	})
	return out
}

// TestEnumerateDeadlineMidScan: a deadline that expires while the page is
// being scanned is a typed error envelope with its own status — never a
// 200 with half a body — and the page served next is correct. The
// deadlines are chosen so that the abandoned pages fall on both sides of
// maxPageAlloc: within what pageCap allocated, and grown past it.
func TestEnumerateDeadlineMidScan(t *testing.T) {
	s, ts := testServer(t, func(c *Config) { c.MaxLimit = 1 << 30 })
	qr := bigFar(t, ts.URL)
	want := firstAnswers(t, s.cfg.Graphs["big"], "dist(x,y) > 2 & C0(y)", []string{"x", "y"}, 50)
	var seen pageShapes
	for _, ms := range []int{1, 3, 40} {
		url := fmt.Sprintf("%s/v1/enumerate?query=%s&limit=%d&timeout_ms=%d", ts.URL, qr.ID, 1<<29, ms)
		resp, data := getJSON(t, url)
		if resp.StatusCode != http.StatusGatewayTimeout || errCode(t, data) != ErrDeadlineExceeded {
			t.Fatalf("timeout_ms=%d: status %d, body %.200s", ms, resp.StatusCode, data)
		}
		resp, data = getJSON(t, fmt.Sprintf("%s/v1/enumerate?query=%s&limit=50", ts.URL, qr.ID))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("page after an abandoned scan: status %d: %s", resp.StatusCode, data)
		}
		if page := checkPageBytes(t, data, qr.ID, 50, &seen); !reflect.DeepEqual(page.Solutions, want) {
			t.Fatalf("page after an abandoned scan:\n got %v\nwant %v", page.Solutions, want)
		}
	}
}

// discardWriter is a ResponseWriter that keeps nothing, so that what
// AllocsPerRun counts is the handler and not a recorder's growing body.
type discardWriter struct{ h http.Header }

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardWriter) WriteHeader(int)             {}

// TestEnumerateAllocsPerAnswer pins the point of the page writer: a page
// of 10000 answers allocates what a page of 100 does, and a request at
// most 24 objects — the query string, deadline, iterator and headers, and
// the page. The per-request allocations cancel out in the difference; what
// would remain is anything allocated per answer, or a page buffer that
// pageCap sized short.
func TestEnumerateAllocsPerAnswer(t *testing.T) {
	s, ts := testServer(t, func(c *Config) { c.Metrics = nil })
	qr := bigFar(t, ts.URL)
	h := s.Handler()
	w := &discardWriter{h: http.Header{}}
	allocs := func(limit int) float64 {
		req := httptest.NewRequest(http.MethodGet, fmt.Sprintf("/v1/enumerate?query=%s&limit=%d", qr.ID, limit), nil)
		return testing.AllocsPerRun(20, func() { h.ServeHTTP(w, req) })
	}
	small, large := allocs(100), allocs(10000)
	t.Logf("allocs per request: limit=100 %.0f, limit=10000 %.0f", small, large)
	if large != small {
		t.Fatalf("a 10000-answer page allocates %.0f, a 100-answer page %.0f: something allocates per answer", large, small)
	}
	if large > 24 {
		t.Fatalf("a page request allocates %.0f times, want at most 24", large)
	}
}

// TestPageBytesPerAnswer: a page is compact JSON. A 10000-answer page of a
// binary query over 5-digit vertex ids takes at most 15 bytes a row, where
// indented JSON takes 41.
func TestPageBytesPerAnswer(t *testing.T) {
	_, ts := testServer(t, func(c *Config) {
		c.Graphs["big"] = repro.Generate("grid", 20000, repro.GenOptions{Colors: 1, Seed: 3})
	})
	qr := bigFar(t, ts.URL)
	resp, data := getJSON(t, fmt.Sprintf("%s/v1/enumerate?query=%s&limit=10000", ts.URL, qr.ID))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %.200s", resp.StatusCode, data)
	}
	page, _, err := decodePageExact(data)
	if err != nil {
		t.Fatal(err)
	}
	if page.Count != 10000 {
		t.Fatalf("page of %d answers, want 10000", page.Count)
	}
	t.Logf("%d bytes, %.1f a row", len(data), float64(len(data))/10000)
	if len(data) > 15*10000 {
		t.Fatalf("a 10000-answer page is %d bytes, want at most %d", len(data), 15*10000)
	}
}

// TestConcurrentPages: pages of different queries and sizes built at the
// same time must not bleed into each other. 36 clients page six queries at
// six limits through one server; every body is checked byte for byte and
// every stream against Index.Enumerate. verify.sh tier 2 runs it -race
// -count=10.
func TestConcurrentPages(t *testing.T) {
	s, ts := testServer(t, nil)
	type stream struct {
		graph, src string
		vars       []string
	}
	streams := []stream{
		{"path", "dist(x,y) > 2 & C0(y)", []string{"x", "y"}},
		{"path", "C0(x)", []string{"x"}},
		{"path", "E(x,y)", []string{"x", "y"}},
		{"sparse", "dist(x,y) > 2 & C0(y)", []string{"x", "y"}},
		{"sparse", "exists z (E(x,z) & E(z,y)) | x = y", []string{"x", "y"}},
		{"sparse", "C0(x) & ~C0(x)", []string{"x"}},
	}
	limits := []int{5, 17, 64, 300, 1000, 10000}
	var wg sync.WaitGroup
	for _, st := range streams {
		qr := registerQuery(t, ts.URL, st.graph, st.src, st.vars...)
		want := firstAnswers(t, s.cfg.Graphs[st.graph], st.src, st.vars, math.MaxInt)
		for _, limit := range limits {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := pageThrough(ts.URL, qr.ID, limit, want); err != nil {
					t.Errorf("%s/%s limit %d: %v", st.graph, st.src, limit, err)
				}
			}()
		}
	}
	wg.Wait()
}

// pageThrough reads one whole stream page by page; it reports instead of
// failing the test because it runs beside the test's goroutine.
func pageThrough(base, qid string, limit int, want [][]int) error {
	got := [][]int{}
	url := fmt.Sprintf("%s/v1/enumerate?query=%s&limit=%d", base, qid, limit)
	for pages := 0; ; pages++ {
		if pages > len(want)/limit+1 {
			return fmt.Errorf("paging does not terminate (%d pages for %d solutions)", pages, len(want))
		}
		resp, err := http.Get(url)
		if err != nil {
			return err
		}
		var raw bytes.Buffer
		_, err = raw.ReadFrom(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			return fmt.Errorf("page %d: status %d, read error %v: %.200s", pages, resp.StatusCode, err, raw.Bytes())
		}
		page, _, err := decodePageExact(raw.Bytes())
		if err != nil {
			return fmt.Errorf("page %d: %v", pages, err)
		}
		got = append(got, page.Solutions...)
		if page.Done {
			break
		}
		url = fmt.Sprintf("%s/v1/enumerate?cursor=%s&limit=%d", base, page.NextCursor, limit)
	}
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("paged stream (%d sols) != Enumerate stream (%d sols)", len(got), len(want))
	}
	return nil
}
