package main

import "sort"

// tailMinBeyond is how many samples must lie beyond a reported tail
// percentile for it to mean anything.
const tailMinBeyond = 10

// median returns the median of xs (the mean of the middle two for an even
// count); 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailStat is a latency tail together with what supports it.
type tailStat struct {
	Value   float64 `json:"value"`
	Pct     float64 `json:"percentile"`
	Beyond  int     `json:"samples_beyond"`
	Samples int     `json:"samples"`
}

// tail returns the value at the highest percentile that has at least
// minBeyond samples beyond it. When the sample is too small for such a
// percentile to lie above the median (fewer than 2*minBeyond+1 samples),
// it reports the median, as percentile 50: a small sample has no tail to
// speak of, and the median, unlike the maximum, does not jump from run to
// run with the single slowest job.
func tail(xs []float64, minBeyond int) tailStat {
	n := len(xs)
	if n == 0 {
		return tailStat{}
	}
	s := sortedCopy(xs)
	k := n - 1 - minBeyond
	if k < n/2 {
		return tailStat{Value: median(s), Pct: 50, Beyond: n / 2, Samples: n}
	}
	return tailStat{Value: s[k], Pct: 100 * float64(k+1) / float64(n), Beyond: n - 1 - k, Samples: n}
}

// settled gives each job the fastest latency its class (classes[i]) had
// over the phase. The jobs of a class do the same work, repeated through
// the run, but meet other tenants' load of a shared host at different
// moments, and that load only ever adds time; the class's fastest job is
// what the work costs when the load leaves it alone, and moves with the
// program rather than with the host. A class of one job keeps its own
// latency.
func settled(classes []string, lat []float64) []float64 {
	best := make(map[string]float64)
	for i, k := range classes {
		if b, ok := best[k]; !ok || lat[i] < b {
			best[k] = lat[i]
		}
	}
	out := make([]float64, len(classes))
	for i, k := range classes {
		out[i] = best[k]
	}
	return out
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
