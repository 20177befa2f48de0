package main

import (
	"math"
	"sort"
)

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle value of xs (the mean of the two middle values for
// an even count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile with the "exclusive"
// method of Python's statistics.quantiles(xs, n=4), so the spread this
// program prints is the one a reviewer recomputes from the raw values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		// statistics.quantiles, method "exclusive": position i*(n+1)/4,
		// clamped so the ends extrapolate from the outermost pair.
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// minTailSamples is the least sample count for which a tail percentile is
// reported: below it the highest percentile with ten samples beyond it
// would be no tail at all.
const minTailSamples = 40

// tail returns the highest order statistic that still has at least ten
// samples above it, and false when there are fewer than minTailSamples.
func tail(xs []float64) (float64, bool) {
	if len(xs) < minTailSamples {
		return 0, false
	}
	s := sorted(xs)
	return s[len(s)-11], true
}

// mean is the arithmetic mean (0 for no samples).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// digits turns a worst relative error into decimal digits of accuracy.
func digits(worst float64) float64 {
	if worst <= 0 {
		return 16
	}
	return -math.Log10(worst)
}
