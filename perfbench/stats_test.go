package main

import (
	"math"
	"testing"
	"time"
)

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.in); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples is not NaN")
	}
}

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(xs, n=4) gives for the same input.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3.1, 1.2, 7.7, 4.4}, [3]float64{1.675, 3.75, 6.875}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}},
		{[]float64{2, 9, 4}, [3]float64{2, 4, 9}},
		{[]float64{7}, [3]float64{7, 7, 7}},
		{[]float64{81, 1, 27, 3, 9}, [3]float64{2, 9, 54}},
	} {
		q1, q2, q3 := quartiles(tc.in)
		for i, got := range []float64{q1, q2, q3} {
			if math.Abs(got-tc.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v %v %v, want %v", tc.in, q1, q2, q3, tc.want)
				break
			}
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	asc := []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, tc := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 100}, {1, 10}, {100, 100}} {
		if got := percentile(asc, tc.p); got != tc.want {
			t.Errorf("p%v = %v, want %v", tc.p, got, tc.want)
		}
	}
}

// TestTailOf checks the reported tail is the highest percentile with
// at least minBeyond samples above it, and that it carries n.
func TestTailOf(t *testing.T) {
	series := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: tailOf must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n     int
		wantP float64
	}{
		{15, 0},    // even the median has only 7 samples beyond it
		{20, 50},   // 10 beyond the median, 2 beyond p90
		{100, 90},  // 10 beyond p90, 1 beyond p99
		{1000, 99}, // 10 beyond p99
		{9999, 99}, // p99.9 has 9 beyond
		{10000, 99.9},
	} {
		got := tailOf(series(tc.n))
		if got.P != tc.wantP || got.N != tc.n {
			t.Errorf("n=%d: tail p%v (n=%d), want p%v", tc.n, got.P, got.N, tc.wantP)
			continue
		}
		if got.P > 0 {
			beyond := 0
			for _, x := range series(tc.n) {
				if x > got.Value {
					beyond++
				}
			}
			if beyond < minBeyond {
				t.Errorf("n=%d: p%v = %v has %d samples beyond it", tc.n, got.P, got.Value, beyond)
			}
		}
	}
}

// TestOpenLoopAccounting replays a stall: the first request takes
// 25 ms on a 10 ms schedule, so the two requests queued behind it are
// sent late and their latency counts from when they were due, not from
// when the generator got round to them.
func TestOpenLoopAccounting(t *testing.T) {
	t0 := time.Unix(1000, 0)
	ms := func(n int) time.Time { return t0.Add(time.Duration(n) * time.Millisecond) }
	o := newOpenLoop(t0, 100)
	steps := []struct{ sent, done int }{{0, 25}, {25, 26}, {26, 27}, {30, 31}}
	for i, s := range steps {
		due := o.due()
		if want := ms(10 * i); !due.Equal(want) {
			t.Fatalf("request %d due %v, want %v", i, due.Sub(t0), want.Sub(t0))
		}
		o.record(due, ms(s.sent), ms(s.done))
	}
	wantLatency := []time.Duration{25, 16, 7, 1}
	wantLate := []time.Duration{0, 15, 6, 0}
	for i := range steps {
		if o.latency[i] != wantLatency[i]*time.Millisecond || o.late[i] != wantLate[i]*time.Millisecond {
			t.Errorf("request %d: latency %v late %v, want %vms and %vms",
				i, o.latency[i], o.late[i], int(wantLatency[i]), int(wantLate[i]))
		}
	}
	if got := millis(o.latency); got[1] != 16 {
		t.Errorf("millis = %v", got)
	}
}
