package main

import (
	"math"
	"sort"
	"time"
)

// pct is one reported percentile: the percentile actually used, its value
// and the sample count it was taken from.
type pct struct {
	P     float64
	Value float64
	N     int
}

// minBeyond is the number of samples a tail percentile must have beyond it.
const minBeyond = 10

// percentile applies the benchmark's percentile rule to xs: the nearest-rank
// p-th percentile, or, when fewer than minBeyond samples lie beyond it, the
// highest percentile that still has minBeyond samples beyond it. The median
// (p <= 50) is exempt. With too few samples for any tail the median is
// returned. xs is sorted in place.
func percentile(xs []float64, p float64) pct {
	n := len(xs)
	if n == 0 {
		return pct{P: p}
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	used := p
	if p > 50 && n-rank < minBeyond {
		rank = n - minBeyond
		if med := (n + 1) / 2; rank < med {
			rank = med
		}
		used = 100 * float64(rank) / float64(n)
	}
	return pct{P: used, Value: xs[rank-1], N: n}
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median of xs (sorted in place); 0 for an empty slice.
func median(xs []float64) float64 { return percentile(xs, 50).Value }
