package main

import (
	"math"
	"sort"
	"time"
)

// tailGrid lists the percentiles a tail may be reported at, highest
// first.
var tailGrid = []float64{99.9, 99, 95, 90, 75, 50}

// minBeyond is the number of samples a reported percentile must leave
// above it.
const minBeyond = 10

// tail is a percentile with the sample count behind it.
type tail struct {
	Pct    float64 `json:"pct"`
	Value  float64 `json:"value"`
	N      int     `json:"n"`
	Beyond int     `json:"beyond"`
}

// rankOf returns the nearest-rank index of percentile p in a sorted
// sample of n values.
func rankOf(p float64, n int) int {
	idx := int(math.Ceil(p/100*float64(n))) - 1
	return max(0, min(idx, n-1))
}

// highestTail returns the highest percentile of tailGrid that leaves at
// least minBeyond samples above it; ok is false when even the median
// does not.
func highestTail(xs []float64) (t tail, ok bool) {
	s := sorted(xs)
	for _, p := range tailGrid {
		idx := rankOf(p, len(s))
		if beyond := len(s) - 1 - idx; len(s) > 0 && beyond >= minBeyond {
			return tail{Pct: p, Value: s[idx], N: len(s), Beyond: beyond}, true
		}
	}
	return tail{N: len(s)}, false
}

// median returns the middle value (mean of the two middle values for an
// even count), 0 for an empty sample.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// geomean returns the geometric mean of positive values, 0 when any is
// not positive or the sample is empty.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// minOf returns the smallest value, 0 for an empty sample.
func minOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sorted(xs)[0]
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
