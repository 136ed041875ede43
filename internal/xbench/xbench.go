// Package xbench contains the small measurement harness used by
// cmd/fodbench and the benchmarks: wall-clock timing, log–log exponent
// fitting (to verify pseudo-linear scaling empirically), delay statistics
// for enumeration, and plain-text table rendering.
package xbench

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"time"
)

// Time runs f once and returns the elapsed wall-clock time.
func Time(f func()) time.Duration {
	start := time.Now()
	f()
	return time.Since(start)
}

// FitExponent fits t ≈ c·n^α by least squares on (log n, log t) and
// returns α. It is the scaling verdict of the experiments: α ≈ 1 means
// (pseudo-)linear, α ≈ 0 means constant.
func FitExponent(ns []int, ts []time.Duration) float64 {
	if len(ns) != len(ts) || len(ns) < 2 {
		return math.NaN()
	}
	var sx, sy, sxx, sxy float64
	for i := range ns {
		x := math.Log(float64(ns[i]))
		y := math.Log(float64(ts[i]) + 1)
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
	}
	n := float64(len(ns))
	den := n*sxx - sx*sx
	if den == 0 {
		return math.NaN()
	}
	return (n*sxy - sx*sy) / den
}

// FitExponentF is FitExponent for float measurements (e.g. sizes).
func FitExponentF(ns []int, ys []float64) float64 {
	ts := make([]time.Duration, len(ys))
	for i, y := range ys {
		ts[i] = time.Duration(y * float64(time.Second))
	}
	return FitExponent(ns, ts)
}

// DelayStats summarizes the inter-solution delays of an enumeration run.
type DelayStats struct {
	Count int
	Max   time.Duration
	P50   time.Duration
	P99   time.Duration
	Mean  time.Duration
}

// SummarizeDelays computes the summary of a delay series.
func SummarizeDelays(delays []time.Duration) DelayStats {
	st := DelayStats{Count: len(delays)}
	if len(delays) == 0 {
		return st
	}
	sorted := append([]time.Duration(nil), delays...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var total time.Duration
	for _, d := range sorted {
		total += d
	}
	st.Max = sorted[len(sorted)-1]
	st.P50 = sorted[len(sorted)/2]
	st.P99 = sorted[len(sorted)*99/100]
	st.Mean = total / time.Duration(len(sorted))
	return st
}

// Table renders rows with aligned columns.
type Table struct {
	Header []string
	Rows   [][]string
}

// NewTable returns a table with the given header.
func NewTable(cols ...string) *Table { return &Table{Header: cols} }

// Add appends a row; values are rendered with %v.
func (t *Table) Add(vals ...interface{}) {
	row := make([]string, len(vals))
	for i, v := range vals {
		switch v := v.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		case time.Duration:
			row[i] = formatDur(v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

func formatDur(d time.Duration) string {
	switch {
	case d < time.Microsecond:
		return fmt.Sprintf("%dns", d.Nanoseconds())
	case d < time.Millisecond:
		return fmt.Sprintf("%.2fµs", float64(d.Nanoseconds())/1e3)
	case d < time.Second:
		return fmt.Sprintf("%.2fms", float64(d.Nanoseconds())/1e6)
	}
	return fmt.Sprintf("%.2fs", d.Seconds())
}

// Render writes the table.
func (t *Table) Render(w io.Writer) {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintln(w, strings.Join(parts, "  "))
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}
