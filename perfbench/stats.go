package main

import (
	"math"
	"sort"
	"time"
)

// dist is the sample distribution recorded for every metric.
type dist struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	N      int     `json:"n"`
}

// summarize returns the distribution of xs. The quartiles follow Python's
// statistics.quantiles(xs, n=4) (the "exclusive" method), so the figures
// printed here match what an external spread check computes from them.
func summarize(xs []float64) dist {
	if len(xs) == 0 {
		return dist{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	d := dist{Min: s[0], Max: s[len(s)-1], N: len(s), Median: median(s)}
	if len(s) < 2 {
		d.Q1, d.Q3 = s[0], s[0]
		return d
	}
	q := func(i int) float64 {
		m := len(s) + 1
		j := i * m / 4
		delta := float64(i*m - j*4)
		lo, hi := j-1, j
		if lo < 0 {
			lo = 0
		}
		if hi > len(s)-1 {
			hi = len(s) - 1
		}
		return (s[lo]*(4-delta) + s[hi]*delta) / 4
	}
	d.Q1, d.Q3 = q(1), q(3)
	return d
}

// median of an already sorted slice.
func median(s []float64) float64 {
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of xs, or 0
// for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// ms converts durations to milliseconds.
func ms(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	return out
}

// ratio is num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
