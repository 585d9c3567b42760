package campaign

import (
	"context"
	"testing"
)

// landscapeTargets and landscapeCampaigns give BenchmarkCampaignEngine
// the paper's landscape shape: 45 222 targets crawled from 8 vantage
// points, one campaign after another.
const (
	landscapeTargets   = 45222
	landscapeCampaigns = 8
)

// benchSink keeps the benchmark sink's work observable to the compiler.
var benchSink int

// xorshiftSpin burns a fixed ~12 µs of pure CPU (on a 2-vCPU Intel
// Xeon VM) without touching memory, so the benchmark measures how well
// the engine keeps cores busy, not the visit.
func xorshiftSpin(x int) int {
	h := uint64(x) | 1
	for i := 0; i < 5500; i++ {
		h ^= h << 13
		h ^= h >> 7
		h ^= h << 17
	}
	return int(h)
}

// BenchmarkCampaignEngine is the engine-overhead layer row: one op is
// the landscape shape driven through Run with the default Config. noop
// measures the engine alone (claiming, slot handoff, in-order
// delivery); spin adds a fixed CPU cost per visit, so its
// -cpu 1 vs -cpu 2 ratio is the speedup the engine allows a CPU-bound
// crawl.
func BenchmarkCampaignEngine(b *testing.B) {
	targets := make([]int, landscapeTargets)
	for i := range targets {
		targets[i] = i
	}
	for _, bc := range []struct {
		name  string
		visit func(context.Context, int) (int, error)
	}{
		{"noop", func(_ context.Context, x int) (int, error) { return x, nil }},
		{"spin", func(_ context.Context, x int) (int, error) { return xorshiftSpin(x), nil }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var sum int
			sink := func(r Result[int]) { sum += r.Value }
			b.ReportAllocs()
			for n := 0; n < b.N; n++ {
				for c := 0; c < landscapeCampaigns; c++ {
					if _, err := Run(context.Background(), Config{}, targets, bc.visit, sink); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*landscapeCampaigns*landscapeTargets), "ns/visit")
			benchSink = sum
		})
	}
}
