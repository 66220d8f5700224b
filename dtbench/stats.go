package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between closest ranks, or NaN for an empty sample.
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

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// beyond reports how many samples lie strictly above the q-quantile — the
// evidence behind a tail percentile.
func beyond(xs []float64, q float64) int {
	v := quantile(xs, q)
	n := 0
	for _, x := range xs {
		if x > v {
			n++
		}
	}
	return n
}

// spreadOf returns the minimum, quartiles and maximum of xs — the
// within-run spread recorded next to a median.
func spreadOf(xs []float64) [4]float64 {
	return [4]float64{orZero(quantile(xs, 0)), orZero(quantile(xs, 0.25)), orZero(quantile(xs, 0.75)), orZero(quantile(xs, 1))}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// orZero maps NaN (a quantile of no samples) to 0 so the report stays valid
// JSON; the sample counts in the env line say whether a value is empty.
func orZero(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}
