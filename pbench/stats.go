package main

import (
	"cmp"
	"math"
	"slices"
	"time"
)

// sample is one timed operation of the measured window.
type sample struct {
	lat  time.Duration // how long it took
	work float64       // what it completed: queries answered, facts persisted
}

// latencies returns the exact p50 and p90 of the samples' latencies. p90
// is the tail the benchmark reports: an offline run, the workload with the
// fewest samples, still holds dozens beyond it.
func latencies(samples []sample) (p50, p90 time.Duration) {
	lat := make([]time.Duration, len(samples))
	for i, s := range samples {
		lat[i] = s.lat
	}
	return quantile(lat, 0.50), quantile(lat, 0.90)
}

// quantile returns the exact nearest-rank q-quantile of xs, sorting xs in
// place; 0 when xs is empty.
func quantile[T cmp.Ordered](xs []T, q float64) T {
	var zero T
	if len(xs) == 0 {
		return zero
	}
	slices.Sort(xs)
	rank := int(math.Ceil(q * float64(len(xs))))
	return xs[min(max(rank, 1), len(xs))-1]
}
