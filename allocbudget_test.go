package cookiewalk_test

import (
	"context"
	"runtime"
	"testing"
	"time"

	"cookiewalk"
	"cookiewalk/internal/campaign"
	"cookiewalk/internal/core"
	"cookiewalk/internal/measure"
	"cookiewalk/internal/vantage"
)

// Per-visit allocation budgets for the crawl hot path, split by the
// state of the analysis memo:
//
//   - cached: the steady-state landscape visit — transport dispatch and
//     a fingerprint lookup, NO parse/detect/classify. Measured 1 alloc
//     (both kinds) since the scratch-request/adopted-header path.
//   - resilient-cached: the cached visit with the resilience overlays
//     trendd rounds set (30 s visit deadline, 2 retries, a breaker at
//     5): the deadline context, the retry loop and the host gate on
//     every request. Measured 6 allocs since every request, armed or
//     not, fills the session's scratch request.
//   - uncached: the full pipeline a memo miss runs — scoped compose,
//     parse, detection, language, category. Measured 45 allocs and
//     5.7 KB (cookiewall) / 39 allocs and 2.8 KB (regular) per visit
//     since the session's DOM, attribute and text arenas are recycled
//     after every analysis; what remains is mostly per-candidate text
//     in core.DetectWith.
//
// Uncached budgets are the measurement plus about 25% headroom, so a
// page analysis that starts allocating nodes, attributes or page text
// again fails tier-1.
const (
	cookiewallCachedAllocBudget   = 6
	regularCachedAllocBudget      = 6
	resilientCachedAllocBudget    = 8
	cookiewallUncachedAllocBudget = 56
	regularUncachedAllocBudget    = 49

	cookiewallUncachedByteBudget = 7200
	regularUncachedByteBudget    = 3600
)

// TestVisitAllocBudget pins the allocation count of the single-visit
// hot path in both memo states, and the bytes of an uncached visit, so
// allocation regressions fail tier-1 instead of surfacing months later
// in campaign wall-clock time.
//
// The measured visits carry a campaign.Affinity slot, as every campaign
// worker's visits do, so they reuse one session (parser arenas, cookie
// jar, request scratch). The alloc budgets hold in -race builds too
// (measured there: 1 cached, 6 resilient cached, 48-49 cookiewall / 39
// regular uncached).
// The byte budgets are skipped under -race: the race runtime allocates
// more bytes per uncached cookiewall visit (measured 26-32 KB).
func TestVisitAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc counting is exact; skip in -short runs")
	}
	var wallBytes, regularBytes float64 = cookiewallUncachedByteBudget, regularUncachedByteBudget
	if raceEnabled {
		wallBytes, regularBytes = 0, 0
	}
	s := cookiewalk.New(cookiewalk.Config{Seed: 42, Scale: 0.02, Reps: 2})
	noMemo := cookiewalk.New(cookiewalk.Config{Seed: 42, Scale: 0.02, Reps: 2, NoAnalysisCache: true})
	resilient := cookiewalk.New(cookiewalk.Config{Seed: 42, Scale: 0.02, Reps: 2,
		VisitTimeout: 30 * time.Second, VisitRetries: 2, BreakerThreshold: 5})
	vp, ok := vantage.ByName("Germany")
	if !ok {
		t.Fatal("no Germany VP")
	}

	wall := s.CookiewallDomains()[0]
	regular := ""
	for _, d := range s.Targets() {
		if o := s.Crawler().Visit(context.Background(), vp, d, measure.VisitOpts{}); o.Err == "" && o.Kind == core.KindRegular {
			regular = d
			break
		}
	}
	if regular == "" {
		t.Fatal("no regular-banner site found")
	}

	for _, tc := range []struct {
		name, domain string
		crawler      *measure.Crawler
		budget       float64
		byteBudget   float64 // 0: not pinned
	}{
		{"cookiewall-cached", wall, s.Crawler(), cookiewallCachedAllocBudget, 0},
		{"regular-cached", regular, s.Crawler(), regularCachedAllocBudget, 0},
		{"resilient-cached", wall, resilient.Crawler(), resilientCachedAllocBudget, 0},
		{"cookiewall-uncached", wall, noMemo.Crawler(), cookiewallUncachedAllocBudget, wallBytes},
		{"regular-uncached", regular, noMemo.Crawler(), regularUncachedAllocBudget, regularBytes},
	} {
		c := tc.crawler
		ctx := campaign.WithAffinity(context.Background(), new(campaign.Affinity))
		visit := func() {
			if o := c.Visit(ctx, vp, tc.domain, measure.VisitOpts{}); o.Err != "" {
				t.Fatal(o.Err)
			}
		}
		visit() // warm render + analysis caches
		got := testing.AllocsPerRun(50, visit)
		t.Logf("%s visit: %.1f allocs (budget %.0f)", tc.name, got, tc.budget)
		if got > tc.budget {
			t.Errorf("%s visit allocates %.1f, budget is %.0f — the hot path regressed",
				tc.name, got, tc.budget)
		}
		if tc.byteBudget == 0 {
			continue
		}
		bytes := bytesPerRun(50, visit)
		t.Logf("%s visit: %.0f B (budget %.0f)", tc.name, bytes, tc.byteBudget)
		if bytes > tc.byteBudget {
			t.Errorf("%s visit allocates %.0f B, budget is %.0f B — the hot path regressed",
				tc.name, bytes, tc.byteBudget)
		}
	}
}

// bytesPerRun is testing.AllocsPerRun for bytes: the average heap
// bytes f allocates, measured with one P so no other goroutine's
// allocations count.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f() // warm-up, as in AllocsPerRun
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}
