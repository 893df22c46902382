package main

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"time"
)

// minBeyond is the number of samples a reported percentile must leave
// above it: a p99 needs at least 1000 samples, a median at least 20.
const minBeyond = 10

// percentileLadder is the set of percentiles the tail rule chooses from.
var percentileLadder = []float64{50, 90, 99, 99.9, 99.99}

// rank returns the 1-based nearest-rank index of percentile p in n
// samples.
func rank(p float64, n int) int {
	r := int(math.Ceil(float64(n)*p/100 - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// beyond returns how many of n samples lie above the nearest-rank
// percentile p.
func beyond(p float64, n int) int { return n - rank(p, n) }

// tailPercentile returns the highest percentile of the ladder that
// leaves at least minBeyond samples above it, or false when n is too
// small even for the median.
func tailPercentile(n int) (float64, bool) {
	best, ok := 0.0, false
	for _, p := range percentileLadder {
		if beyond(p, n) >= minBeyond {
			best, ok = p, true
		}
	}
	return best, ok
}

// percentile returns the nearest-rank percentile p of samples, which it
// sorts in place. It fails when fewer than minBeyond samples lie above
// the result: such a percentile is a guess, not a measurement.
func percentile(samples []float64, p float64) (float64, error) {
	if len(samples) == 0 {
		return 0, fmt.Errorf("p%g of no samples", p)
	}
	if b := beyond(p, len(samples)); b < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples leaves %d beyond it, want at least %d",
			p, len(samples), b, minBeyond)
	}
	sort.Float64s(samples)
	return samples[rank(p, len(samples))-1], nil
}

// minSamples returns the fewest samples for which percentile p leaves
// minBeyond samples above it.
func minSamples(p float64) int {
	n := 1
	for beyond(p, n) < minBeyond {
		n++
	}
	return n
}

// blockPercentile splits samples, in the order they were taken, into as
// many consecutive blocks as can each support percentile p, and returns
// the median of the blocks' percentiles with the block count. A burst of
// interference then moves one block's value instead of the whole tail.
func blockPercentile(samples []float64, p float64) (float64, int, error) {
	k := len(samples) / minSamples(p)
	if k < 1 {
		_, err := percentile(slices.Clone(samples), p)
		return 0, 0, err
	}
	vals := make([]float64, k)
	for b := range vals {
		lo, hi := b*len(samples)/k, (b+1)*len(samples)/k
		v, err := percentile(slices.Clone(samples[lo:hi]), p)
		if err != nil {
			return 0, 0, err
		}
		vals[b] = v
	}
	return median(vals), k, nil
}

// median returns the median of values (the mean of the middle pair for
// an even count), or 0 for none. values is sorted in place.
func median(values []float64) float64 {
	n := len(values)
	if n == 0 {
		return 0
	}
	sort.Float64s(values)
	if n%2 == 1 {
		return values[n/2]
	}
	return (values[n/2-1] + values[n/2]) / 2
}

func mean(values []float64) float64 {
	var sum float64
	for _, x := range values {
		sum += x
	}
	return sum / float64(len(values))
}

// interval is a closed-open span of wall time [start, end).
type interval struct {
	start, end time.Time
}

// selfTime returns parent's duration minus the part of it that the
// children cover. Children are clipped to the parent, and overlapping
// or nested children count once.
func selfTime(parent interval, children []interval) time.Duration {
	total := parent.end.Sub(parent.start)
	if total <= 0 {
		return 0
	}
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		if c.start.Before(parent.start) {
			c.start = parent.start
		}
		if c.end.After(parent.end) {
			c.end = parent.end
		}
		if c.end.After(c.start) {
			clipped = append(clipped, c)
		}
	}
	slices.SortFunc(clipped, func(a, b interval) int { return a.start.Compare(b.start) })
	var covered time.Duration
	var cur interval
	for i, c := range clipped {
		switch {
		case i == 0:
			cur = c
		case !c.start.After(cur.end):
			if c.end.After(cur.end) {
				cur.end = c.end
			}
		default:
			covered += cur.end.Sub(cur.start)
			cur = c
		}
	}
	if len(clipped) > 0 {
		covered += cur.end.Sub(cur.start)
	}
	return total - covered
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
