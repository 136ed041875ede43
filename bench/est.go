package main

import (
	"math"
	"sort"
	"time"
)

// The estimators are fixed here because the sandbox stalls a busy process
// every few milliseconds and slows it for seconds at a time: every timing is
// taken from the undisturbed part of its sample, never from a mean.

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics; xs need not be sorted. NaN for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// fastDecile is the rate estimator: the 90th percentile of the slice rates,
// i.e. the rate the system reaches in the tenth of the window that was
// disturbed least.
func fastDecile(rates []float64) float64 { return quantile(rates, 0.9) }

// fastest is the estimator for durations with few samples and no
// undisturbed ones (builds, restores, writes): the smallest.
func fastest(xs []float64) float64 { return quantile(xs, 0) }

// tailPercentile returns the highest percentile p (in percent) that still
// has at least ten samples beyond it, and the value at that percentile.
// With fewer than eleven samples there is no such percentile: it returns
// the median and 50.
func tailPercentile(xs []float64) (value, pct float64) {
	n := len(xs)
	if n < 11 {
		return quantile(xs, 0.5), 50
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	idx := n - 11 // ten samples lie strictly beyond s[idx]
	return s[idx], 100 * float64(idx+1) / float64(n)
}

// quartiles returns the first quartile, median and third quartile.
func quartiles(xs []float64) [3]float64 {
	return [3]float64{quantile(xs, 0.25), quantile(xs, 0.5), quantile(xs, 0.75)}
}

// spread is the interquartile distance as a share of the median, the
// run-to-run noise measure the comparator holds against a metric's bound.
func spread(xs []float64) float64 {
	q := quartiles(xs)
	if q[1] == 0 {
		return 0
	}
	return math.Abs(q[2]-q[0]) / math.Abs(q[1])
}

// buildExponent is the fitted growth exponent between two sizes:
// log(tLarge/tSmall) / log(nLarge/nSmall). A pseudo-linear build reads
// 1+ε; the ternary skip build reads about 2.
func buildExponent(tSmall, tLarge float64, nSmall, nLarge int) float64 {
	return math.Log(tLarge/tSmall) / math.Log(float64(nLarge)/float64(nSmall))
}

func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d.Nanoseconds()) / 1e6
	}
	return out
}

func durationsUS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d.Nanoseconds()) / 1e3
	}
	return out
}
