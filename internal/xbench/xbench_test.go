package xbench

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"
)

func TestFitExponentLinear(t *testing.T) {
	ns := []int{1000, 2000, 4000, 8000}
	ts := make([]time.Duration, len(ns))
	for i, n := range ns {
		ts[i] = time.Duration(n) * time.Microsecond // t = c·n
	}
	if a := FitExponent(ns, ts); math.Abs(a-1.0) > 0.01 {
		t.Fatalf("linear fit exponent = %f", a)
	}
}

func TestFitExponentQuadratic(t *testing.T) {
	ns := []int{100, 200, 400, 800}
	ts := make([]time.Duration, len(ns))
	for i, n := range ns {
		ts[i] = time.Duration(n*n) * time.Nanosecond
	}
	if a := FitExponent(ns, ts); math.Abs(a-2.0) > 0.01 {
		t.Fatalf("quadratic fit exponent = %f", a)
	}
}

func TestFitExponentConstant(t *testing.T) {
	ns := []int{100, 1000, 10000}
	ts := []time.Duration{time.Microsecond, time.Microsecond, time.Microsecond}
	if a := FitExponent(ns, ts); math.Abs(a) > 0.01 {
		t.Fatalf("constant fit exponent = %f", a)
	}
}

func TestFitExponentDegenerate(t *testing.T) {
	if !math.IsNaN(FitExponent([]int{5}, []time.Duration{1})) {
		t.Fatal("single point should yield NaN")
	}
	if !math.IsNaN(FitExponent([]int{5, 5}, []time.Duration{1, 2})) {
		t.Fatal("identical n should yield NaN")
	}
}

func TestSummarizeDelays(t *testing.T) {
	var ds []time.Duration
	for i := 1; i <= 100; i++ {
		ds = append(ds, time.Duration(i)*time.Millisecond)
	}
	st := SummarizeDelays(ds)
	if st.Count != 100 || st.Max != 100*time.Millisecond {
		t.Fatalf("summary: %+v", st)
	}
	if st.P50 != 51*time.Millisecond || st.P99 != 100*time.Millisecond {
		t.Fatalf("percentiles: %+v", st)
	}
	if st.Mean != 50500*time.Microsecond {
		t.Fatalf("mean: %v", st.Mean)
	}
	empty := SummarizeDelays(nil)
	if empty.Count != 0 || empty.Max != 0 {
		t.Fatal("empty summary should be zero")
	}
}

func TestTableRender(t *testing.T) {
	tb := NewTable("name", "value", "time")
	tb.Add("foo", 3.14159, 2500*time.Nanosecond)
	tb.Add("longer-name", 42, time.Second+time.Second/2)
	var buf bytes.Buffer
	tb.Render(&buf)
	out := buf.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("rendered %d lines:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[2], "3.142") {
		t.Fatalf("float not formatted: %q", lines[2])
	}
	if !strings.Contains(lines[2], "2.50µs") {
		t.Fatalf("duration not formatted: %q", lines[2])
	}
	if !strings.Contains(lines[3], "1.50s") {
		t.Fatalf("seconds not formatted: %q", lines[3])
	}
}
