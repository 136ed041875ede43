package serve

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"testing"
	"time"

	"repro"
)

// TestColdResumeGuard is the tier-3 CI guard for the cursor contract:
// resuming a page is O(1) in stream position, warm or cold.
//
// Two assertions, each comparing medians over several trials with a
// generous constant factor (HTTP jitter, scheduler noise):
//
//  1. Warm: a page resumed deep into the stream costs no more than a
//     constant factor of the first page — NextGeq seeks in constant
//     time, so cursor depth is free.
//  2. Cold: after flushing the cache, a deep resume (rebuild + seek)
//     costs no more than a constant factor of a cold first page
//     (rebuild + seek) — the rebuild dominates both identically, and
//     the deep seek adds only O(1) on top.
//
// Gated behind GUARD=1 (scripts/verify.sh tier 3) so ordinary test
// runs are not timing-sensitive.
func TestColdResumeGuard(t *testing.T) {
	if os.Getenv("GUARD") == "" {
		t.Skip("set GUARD=1 to run the timing guards (scripts/verify.sh 3)")
	}
	const (
		factor   = 25.0
		trials   = 9
		pageSize = 64
	)
	g := repro.Generate("path", 6000, repro.GenOptions{Colors: 1, Seed: 2})
	s := NewServer(Config{
		Graphs:   map[string]*repro.Graph{"g": g},
		MaxLimit: 1 << 30,
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	qr := registerQuery(t, ts.URL, "g", "E(x,y)", "x", "y")

	// Fetch the whole stream once to place a cursor one page before the
	// end (the deepest resumable position).
	resp, data := getJSON(t, ts.URL+"/v1/enumerate?query="+qr.ID+"&limit=1000000000")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("full fetch: status %d: %s", resp.StatusCode, data)
	}
	all := mustDecode[EnumerateResponse](t, data)
	if len(all.Solutions) < 4*pageSize {
		t.Fatalf("only %d solutions; guard needs a deeper stream", len(all.Solutions))
	}
	deepCursor := encodeCursor(qr.ID, 0, all.Solutions[len(all.Solutions)-pageSize-1])

	firstURL := fmt.Sprintf("%s/v1/enumerate?query=%s&limit=%d", ts.URL, qr.ID, pageSize)
	deepURL := fmt.Sprintf("%s/v1/enumerate?cursor=%s&limit=%d", ts.URL, deepCursor, pageSize)

	timePage := func(url string, flushFirst bool) time.Duration {
		if flushFirst {
			s.cache.Flush()
		}
		start := time.Now()
		resp, data := getJSON(t, url)
		d := time.Since(start)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("page: status %d: %s", resp.StatusCode, data)
		}
		return d
	}
	median := func(url string, flushFirst bool) time.Duration {
		ds := make([]time.Duration, trials)
		for i := range ds {
			ds[i] = timePage(url, flushFirst)
		}
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		return ds[trials/2]
	}

	warmFirst := median(firstURL, false)
	warmDeep := median(deepURL, false)
	coldFirst := median(firstURL, true)
	coldDeep := median(deepURL, true)

	t.Logf("warm: first=%v deep=%v   cold: first=%v deep=%v", warmFirst, warmDeep, coldFirst, coldDeep)

	// Sub-millisecond medians are in HTTP-jitter territory; floor the
	// denominators so the ratios stay meaningful.
	floor := 200 * time.Microsecond
	if warmDeep > factor*max(warmFirst, floor) {
		t.Errorf("warm deep resume %v exceeds %.0f× warm first page %v — seek is not O(1)",
			warmDeep, factor, warmFirst)
	}
	if coldDeep > factor*max(coldFirst, floor) {
		t.Errorf("cold deep resume %v exceeds %.0f× cold first page %v — resume after rebuild is not O(1)",
			coldDeep, factor, coldFirst)
	}
}
