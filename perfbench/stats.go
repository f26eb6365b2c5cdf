package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a reported percentile:
// a tail quantile resting on fewer is one slow request, not a tail.
const minBeyond = 10

// sample is a set of measurements of one quantity.
type sample []float64

func durations(ds []time.Duration, unit time.Duration) sample {
	out := make(sample, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}

// quantile returns the nearest-rank q-quantile. It fails when fewer
// than minBeyond samples lie above the rank, so a p99 needs at least
// 1000 samples.
func (s sample) quantile(q float64) (float64, error) {
	n := len(s)
	if n == 0 {
		return 0, fmt.Errorf("quantile %.3g of an empty sample", q)
	}
	rank := max(int(math.Ceil(q*float64(n))), 1) // 1-based
	if beyond := n - rank; beyond < minBeyond {
		return 0, fmt.Errorf("quantile %.3g of %d samples has %d beyond it, need %d", q, n, beyond, minBeyond)
	}
	return s.rank(q), nil
}

// rank is the nearest-rank q-quantile without the tail rule, for
// per-layer figures whose sample counts the record states; 0 when
// empty.
func (s sample) rank(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	sorted := append(sample(nil), s...)
	sort.Float64s(sorted)
	r := int(math.Ceil(q * float64(len(s))))
	return sorted[max(r, 1)-1]
}

// median is the 0.5 quantile without the tail rule (medians of a few
// set-up repetitions are still medians).
func (s sample) median() float64 { return s.rank(0.5) }

func (s sample) max() float64 {
	m := 0.0
	for _, v := range s {
		m = math.Max(m, v)
	}
	return m
}
