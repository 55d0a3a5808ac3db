package main

import (
	"math"
	"slices"
)

// quantile returns the q-quantile (0 <= q <= 1) of the ascending s by linear
// interpolation between closest ranks; 0 for an empty slice.
func quantile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// percentile is quantile for unsorted input; xs is not modified.
func percentile(xs []float64, q float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return quantile(s, q)
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// midmean is the mean of the middle half of xs (the interquartile mean): as
// robust against a few stalled or bursting slices as the median, and less
// coarse.
func midmean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	s = s[len(s)/4 : len(s)-len(s)/4]
	var sum float64
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

// tailQuantile is the highest of p50, p90, p99 and p99.9 that n samples
// support: a percentile is reported only with at least ten samples beyond it.
func tailQuantile(n int) float64 {
	best := 0.5
	for _, perMille := range []int{900, 990, 999} {
		if n*(1000-perMille) >= 10*1000 {
			best = float64(perMille) / 1000
		}
	}
	return best
}

// throughput is the completion rate over the instants ts, in 1/s: ts is cut
// into slices of equal count, one per second of the window, each slice's rate
// is its count over the time from its first instant to the next slice's, and
// the result is their midmean. Counting per second instead reads the same on
// every run: replies come in whole batches of 100, so at a steady 20000 txn/s
// every second holds exactly 20000.
func throughput(ts []int64, seconds int) float64 {
	s := slices.Clone(ts)
	slices.Sort(s)
	per := (len(s) - 1) / seconds
	if per < 1 {
		return 0
	}
	rates := make([]float64, 0, seconds)
	for i := 0; i < seconds; i++ {
		if span := s[(i+1)*per] - s[i*per]; span > 0 {
			rates = append(rates, float64(per)/(float64(span)/1e9))
		}
	}
	return midmean(rates)
}

// recoverWork is how many seconds' worth of work recoverSeconds follows
// after the fault instant.
const recoverWork = 4.0

// recoverSeconds is the mean time after the fault instant at which the first
// recoverWork seconds' worth of work (at rate txn/s) completed. With nothing
// failing, that work completes evenly over recoverWork seconds and the mean
// is half of it; a stall of S seconds followed by a catch-up burst moves the
// mean to about S plus the burst's length. Being a mean over thousands of
// completions it is continuous in the stall and burst lengths, where "first
// second with at least half the offered rate" jumps by a whole detection
// timeout when one burst crosses its threshold, and it is defined, and never
// zero, on every workload. If less work than that completed, it is the mean
// over what did.
func recoverSeconds(doneAt []int64, faultAt int64, rate float64) float64 {
	var after []int64
	for _, t := range doneAt {
		if t > faultAt {
			after = append(after, t)
		}
	}
	if len(after) == 0 {
		return 0
	}
	slices.Sort(after)
	need := min(max(int(math.Ceil(rate*recoverWork)), 1), len(after))
	var sum float64
	for _, t := range after[:need] {
		sum += float64(t-faultAt) / 1e9
	}
	return sum / float64(need)
}
