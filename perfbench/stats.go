package main

import (
	"math"
	"sort"
	"time"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first, second and third quartile of xs by the
// same rule as Python's statistics.quantiles(xs, n=4) (the default
// "exclusive" method), so spreads printed here match the ones a
// reader recomputes from the per-run values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	switch ld {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	const n = 4
	m := ld + 1
	var q [n - 1]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		q[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q[0], q[1], q[2]
}

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// an ascending slice: the smallest sample with at least p% of the
// samples at or below it.
func percentile(asc []float64, p float64) float64 {
	if len(asc) == 0 {
		return math.NaN()
	}
	rank := nearestRank(p, len(asc))
	if rank < 1 {
		rank = 1
	}
	if rank > len(asc) {
		rank = len(asc)
	}
	return asc[rank-1]
}

// nearestRank is the 1-based rank of the p-th percentile of n samples.
// The tolerance keeps a product like 99.9% × 10 000, which floating
// point puts a hair above 9 990, from rounding up a whole rank.
func nearestRank(p float64, n int) int {
	return int(math.Ceil(p/100*float64(n) - 1e-9))
}

// tailLadder is the percentiles a tail is reported at, lowest first.
var tailLadder = []float64{50, 90, 99, 99.9, 99.99}

// minBeyond is how many samples must lie above a reported tail
// percentile: fewer make the value a single unlucky sample.
const minBeyond = 10

// tail is a timing distribution's reportable tail.
type tail struct {
	// P is the highest ladder percentile with at least minBeyond
	// samples beyond it (0 when even the median has fewer).
	P float64
	// Value is the sample at P.
	Value float64
	// N is the sample count the percentile was taken over.
	N int
}

// tailOf picks the highest percentile of tailLadder that has at least
// minBeyond samples above it, and reports it with the sample count.
func tailOf(xs []float64) tail {
	s := sorted(xs)
	t := tail{N: len(s)}
	for _, p := range tailLadder {
		// Samples strictly above the nearest-rank position.
		rank := nearestRank(p, len(s))
		if len(s)-rank < minBeyond {
			break
		}
		t.P, t.Value = p, s[rank-1]
	}
	return t
}

// openLoop paces requests on a fixed schedule independent of how fast
// earlier ones completed, and accounts each one from the moment it
// was due: a stall therefore shows up in the latency of every request
// queued behind it, not only in its own.
type openLoop struct {
	start    time.Time
	interval time.Duration
	next     int

	// latency is each request's completion minus its due time; late
	// is its send time minus its due time (how far the generator
	// itself fell behind).
	latency []time.Duration
	late    []time.Duration
}

func newOpenLoop(start time.Time, ratePerSec float64) *openLoop {
	return &openLoop{start: start, interval: time.Duration(float64(time.Second) / ratePerSec)}
}

// due returns the next request's scheduled send time and advances the
// schedule.
func (o *openLoop) due() time.Time {
	d := o.start.Add(time.Duration(o.next) * o.interval)
	o.next++
	return d
}

// record accounts one request that was due at due, sent at sent and
// completed at done.
func (o *openLoop) record(due, sent, done time.Time) {
	o.latency = append(o.latency, done.Sub(due))
	o.late = append(o.late, sent.Sub(due))
}

// millis converts durations to float milliseconds.
func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}
