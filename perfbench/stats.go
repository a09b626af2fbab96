package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// xs: the smallest value with at least p% of the samples at or below
// it. xs need not be sorted; it is not modified. An empty input gives 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// windowedPercentile splits xs, in the order they were measured, into k
// consecutive windows and returns the median of the windows' p-th
// percentiles. A burst of host noise inside one window then moves the
// result no more than one window's worth. With fewer than k samples it
// is the plain percentile.
func windowedPercentile(xs []float64, p float64, k int) float64 {
	if len(xs) < k {
		return percentile(xs, p)
	}
	ws := make([]float64, k)
	for i := range ws {
		ws[i] = percentile(xs[i*len(xs)/k:(i+1)*len(xs)/k], p)
	}
	return median(ws)
}

// latencyWindows is how many windows the end-to-end latency percentiles
// are taken over.
const latencyWindows = 5

// latencyMetrics sets the end-to-end latency percentiles from latencies
// in the order they were measured.
func latencyMetrics(m map[string]float64, lats []float64) {
	m["latency_p50_ms"] = windowedPercentile(lats, 50, latencyWindows)
	m["latency_p90_ms"] = windowedPercentile(lats, 90, latencyWindows)
	m["latency_p99_ms"] = windowedPercentile(lats, 99, latencyWindows)
}

// median is the nearest-rank 50th percentile.
func median(xs []float64) float64 { return percentile(xs, 50) }

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts a duration to float microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// interval is a half-open time range [from, to).
type interval struct{ from, to time.Time }

// covered returns the total length of the union of ivs clipped to
// [lo, hi): the part of that window some interval covers, each instant
// counted once however many intervals overlap it.
func covered(ivs []interval, lo, hi time.Time) time.Duration {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		if iv.from.Before(lo) {
			iv.from = lo
		}
		if iv.to.After(hi) {
			iv.to = hi
		}
		if iv.to.After(iv.from) {
			clipped = append(clipped, iv)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].from.Before(clipped[j].from) })
	var total time.Duration
	var cur interval
	for i, iv := range clipped {
		switch {
		case i == 0:
			cur = iv
		case !iv.from.After(cur.to):
			if iv.to.After(cur.to) {
				cur.to = iv.to
			}
		default:
			total += cur.to.Sub(cur.from)
			cur = iv
		}
	}
	if len(clipped) > 0 {
		total += cur.to.Sub(cur.from)
	}
	return total
}

// layerSum splits one op's latency over its layers: other is the part
// of the latency no layer covers. Layers must be disjoint parts of the
// op's interval, so other is never negative unless a layer was counted
// twice — which the caller reports as a failed check.
func layerSum(latency time.Duration, layers map[string]time.Duration) (other time.Duration) {
	other = latency
	for _, d := range layers {
		other -= d
	}
	return other
}
