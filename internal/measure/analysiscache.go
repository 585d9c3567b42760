package measure

import (
	"sync"
	"sync/atomic"

	"cookiewalk/internal/core"
)

// analysisCache memoizes page-analysis results (core.Analysis) by
// content fingerprint: the post-fetch pipeline — parse, core.Detect,
// language detection, categorization — runs ONCE per distinct page
// body instead of once per visit. An eight-vantage-point landscape
// crawl loads at most two distinct renders per site (banner shown or
// not), so up to eight visits collapse onto one analysis.
//
// The cache is process-global: fingerprints are content hashes, so
// entries from different studies can only collide the way any 64-bit
// content hash can, and byte-identical pages genuinely share their
// analysis.
//
// Concurrency: shards keep worker contention negligible, and each
// entry is a singleflight slot — the first goroutine to claim a
// fingerprint computes the analysis while concurrent claimants for the
// same fingerprint block on the entry's done channel instead of
// duplicating in-flight work. Bounding mirrors the webfarm render
// cache: a shard past analysisShardMax entries is reset (in-flight
// entries survive through their pointers; the next visit repopulates),
// so memory stays bounded with no eviction bookkeeping that could
// affect results.
type analysisCache struct {
	shards [analysisShards]analysisShard

	// hits counts visits served by a published entry; misses counts
	// claims that ran a fresh analysis. Monotonic over the process
	// lifetime — delta-crawl rounds subtract snapshots to report how
	// much of a round the memo absorbed. Seeded entries (checkpoint
	// replay) count as neither: they were never analyzed this process.
	hits   atomic.Uint64
	misses atomic.Uint64
}

const (
	analysisShards = 64
	// analysisShardMax bounds entries per shard (≈260k across the
	// cache; a full-scale crawl's working set is ~2 variants × 45k
	// sites spread over 64 shards).
	analysisShardMax = 4096
)

type analysisShard struct {
	mu sync.Mutex
	m  map[uint64]*analysisEntry
	// _ pads the shard to a full 64-byte cache line (Mutex 8 + map
	// header 8 = 16), so neighbouring shards' locks never false-share a
	// line across workers memoizing different fingerprints.
	_ [48]byte
}

// analysisEntry is one fingerprint's singleflight slot. a and failed
// are written exactly once, before done is closed; readers wait on
// done first, so the channel's happens-before edge publishes both
// race-free.
type analysisEntry struct {
	done chan struct{}
	a    core.Analysis
	// failed marks a claim whose compute errored (a composition
	// degraded by transport faults) or died: the entry was already
	// unpublished, and waiters must re-claim instead of consuming it —
	// a failed fetch can never seed the memo.
	failed bool
}

// getChecked returns the memoized analysis for fp, computing it via
// compute on first claim. compute runs on the claiming goroutine;
// concurrent callers with the same fingerprint block until it finishes
// and share the result. A compute error is returned to the claiming
// caller only, the entry is unpublished, and any concurrent waiters on
// the same fingerprint loop back to claim the slot themselves — their
// own visit's fetch decides their outcome. Nothing about a failure is
// ever memoized.
func (c *analysisCache) getChecked(fp uint64, compute func() (core.Analysis, error)) (core.Analysis, error) {
	s := &c.shards[fp%analysisShards]
	for {
		s.mu.Lock()
		if e, ok := s.m[fp]; ok {
			s.mu.Unlock()
			<-e.done
			if e.failed {
				continue
			}
			c.hits.Add(1)
			return e.a, nil
		}
		e := &analysisEntry{done: make(chan struct{})}
		if s.m == nil || len(s.m) >= analysisShardMax {
			s.m = make(map[uint64]*analysisEntry, 64)
		}
		s.m[fp] = e
		s.mu.Unlock()
		c.misses.Add(1)
		return c.fill(s, fp, e, compute)
	}
}

// fill runs compute for a freshly claimed entry: success publishes the
// analysis; an error — or a compute that panics or runs runtime.Goexit
// (t.Fatal in a test helper) — unpublishes the entry so later visits
// recompute, marks it failed, and unblocks waiters into re-claiming.
func (c *analysisCache) fill(s *analysisShard, fp uint64, e *analysisEntry, compute func() (core.Analysis, error)) (core.Analysis, error) {
	completed := false
	defer func() {
		if completed {
			return
		}
		s.mu.Lock()
		if s.m[fp] == e {
			delete(s.m, fp)
		}
		s.mu.Unlock()
		e.failed = true
		close(e.done)
	}()
	a, err := compute()
	if err != nil {
		return core.Analysis{}, err
	}
	e.a = a
	completed = true
	close(e.done)
	return a, nil
}

// seededDone is the pre-closed channel shared by every seeded entry:
// a seed is complete the moment it is published, so readers never
// block on it.
var seededDone = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

// seed publishes an already-computed analysis for fp — the
// checkpoint-resume path, where a replayed observation carries the
// analysis its original visit computed. An existing entry (computed or
// in flight) always wins: seeding never replaces live results, it only
// fills holes, so a seeded cache behaves exactly like one warmed by
// real visits.
func (c *analysisCache) seed(fp uint64, a core.Analysis) {
	s := &c.shards[fp%analysisShards]
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.m[fp]; ok {
		return
	}
	if s.m == nil || len(s.m) >= analysisShardMax {
		s.m = make(map[uint64]*analysisEntry, 64)
	}
	s.m[fp] = &analysisEntry{done: seededDone, a: a}
}

// analyses is the process-wide analysis memo shared by all crawlers;
// Crawler.NoAnalysisCache bypasses it for debugging.
var analyses analysisCache
