package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"cookiewalk"
	"cookiewalk/internal/browser"
	"cookiewalk/internal/campaign"
	"cookiewalk/internal/categorize"
	"cookiewalk/internal/core"
	"cookiewalk/internal/dom"
	"cookiewalk/internal/langdetect"
	"cookiewalk/internal/measure"
	"cookiewalk/internal/synthweb"
	"cookiewalk/internal/vantage"
)

// The traced run records spans and counts from this package only,
// around calls into each layer's public functions: the program itself
// carries no tracing. Layer names follow the module names.

// bodyTransport is the browser's zero-copy dispatch fast path (see
// internal/browser). The timing wrapper must keep offering it, or the
// traced run would measure the plain http.RoundTripper path instead of
// the one production crawls take.
type bodyTransport interface {
	RoundTripBody(req *http.Request) (status int, header http.Header, body string, fp uint64, err error)
}

// farmTimer accumulates time spent inside the synthetic web (the
// webfarm transport) apart from the measurement system calling it.
type farmTimer struct {
	requests  atomic.Int64
	plain     atomic.Int64 // requests that took the RoundTrip path
	busyNanos atomic.Int64
}

func (f *farmTimer) busy() time.Duration { return time.Duration(f.busyNanos.Load()) }

// wrap installs the timer around a transport, as Config.WrapTransport.
// The wrapper offers RoundTripBody exactly when next does.
func (f *farmTimer) wrap(next http.RoundTripper) http.RoundTripper {
	t := &timedTransport{next: next, timer: f}
	if bt, ok := next.(bodyTransport); ok {
		return &timedBodyTransport{timedTransport: t, body: bt}
	}
	return t
}

type timedTransport struct {
	next  http.RoundTripper
	timer *farmTimer
}

func (t *timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	start := time.Now()
	resp, err := t.next.RoundTrip(req)
	t.timer.busyNanos.Add(int64(time.Since(start)))
	t.timer.requests.Add(1)
	t.timer.plain.Add(1)
	return resp, err
}

type timedBodyTransport struct {
	*timedTransport
	body bodyTransport
}

func (t *timedBodyTransport) RoundTripBody(req *http.Request) (int, http.Header, string, uint64, error) {
	start := time.Now()
	status, header, body, fp, err := t.body.RoundTripBody(req)
	t.timer.busyNanos.Add(int64(time.Since(start)))
	t.timer.requests.Add(1)
	return status, header, body, fp, err
}

// tracer holds a traced run's spans in memory: the farm requests as
// counts and busy time, and every Crawler.Visit as its duration — the
// hundreds of thousands of visit spans keep only what the layer
// metrics read.
type tracer struct {
	farm farmTimer

	mu        sync.Mutex
	visitDurs []int64 // ns
}

// crawlLandscape runs the eight vantage-point crawl the way
// measure.Crawler.Landscape does — one campaign per vantage point,
// default engine settings, checkpointed under dir when dir is set —
// but from this package, so a span can be recorded around every
// Crawler.Visit. The check that the traced crawl's digest equals the
// untraced one's keeps this composition honest.
func crawlLandscape(ctx context.Context, c *measure.Crawler, targets []string, dir string, resume bool, tr *tracer) (*measure.Landscape, error) {
	l := &measure.Landscape{Targets: len(targets)}
	index := make([]int, len(targets))
	for i := range index {
		index[i] = i
	}
	labels := measure.LandscapeCampaignLabels()
	for v, vp := range vantage.All() {
		cfg := campaign.Config{
			Label: labels[v], Workers: c.Workers, Shards: c.Shards,
			OnProgress: c.Progress, ProgressEvery: c.ProgressEvery, Budget: c.Budget,
		}
		run := campaign.Run[int, measure.Observation]
		if dir != "" {
			cfg.Checkpoint = &campaign.Checkpoint{
				Dir:         filepath.Join(dir, campaign.PathLabel(labels[v])),
				Codec:       measure.ObservationCodec{},
				TargetsHash: campaign.HashTargets(targets),
			}
			if resume {
				run = campaign.Resume[int, measure.Observation]
			}
		}
		durs := make([]int64, len(targets))
		res := measure.VPResult{VP: vp.Name}
		stats, err := run(ctx, cfg, index,
			func(ctx context.Context, i int) (measure.Observation, error) {
				start := time.Now()
				o := c.Visit(ctx, vp, targets[i], measure.VisitOpts{})
				durs[i] = int64(time.Since(start))
				if o.Err != "" {
					return o, errors.New(o.Err)
				}
				return o, nil
			},
			func(r campaign.Result[measure.Observation]) {
				o := r.Value
				res.Visited++
				switch {
				case o.Err != "":
					res.Errors++
				case o.Kind == core.KindNone:
					res.NoBanner++
				case o.Kind == core.KindRegular:
					res.Regular++
					if o.HasAccept {
						res.RegularAcceptDomains = append(res.RegularAcceptDomains, o.Domain)
					}
				default:
					res.Cookiewalls = append(res.Cookiewalls, o)
				}
			})
		tr.mu.Lock()
		for _, d := range durs {
			// Replayed targets were never visited.
			if d > 0 {
				tr.visitDurs = append(tr.visitDurs, d)
			}
		}
		tr.mu.Unlock()
		res.Stats = stats
		sort.Slice(res.Cookiewalls, func(i, j int) bool { return res.Cookiewalls[i].Domain < res.Cookiewalls[j].Domain })
		sort.Strings(res.RegularAcceptDomains)
		l.PerVP = append(l.PerVP, res)
		if err != nil {
			return l, err
		}
	}
	return l, nil
}

// ledger keeps the final progress snapshot of every campaign a study
// runs (Config.Progress): the engine's own visit, error, replay, retry
// and breaker accounting.
type ledger struct {
	mu   sync.Mutex
	last map[string]cookiewalk.Progress
}

func newLedger() *ledger { return &ledger{last: map[string]cookiewalk.Progress{}} }

func (l *ledger) observe(p cookiewalk.Progress) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if p.Done >= l.last[p.Label].Done {
		l.last[p.Label] = p
	}
}

// totals sums the final snapshots of every campaign.
func (l *ledger) totals() cookiewalk.Progress {
	l.mu.Lock()
	defer l.mu.Unlock()
	var t cookiewalk.Progress
	for _, p := range l.last {
		t.Done += p.Done
		t.Total += p.Total
		t.Errors += p.Errors
		t.Replayed += p.Replayed
		t.Retries += p.Retries
		t.BreakerTrips += p.BreakerTrips
		t.BreakerDenials += p.BreakerDenials
	}
	return t
}

// phaseCounters snapshots the process counters a measured phase is
// accounted against.
type phaseCounters struct {
	hits, misses uint64
	mem          runtime.MemStats
	cpu          time.Duration // process user + system time
}

func snapshotCounters() phaseCounters {
	var p phaseCounters
	p.hits, p.misses = measure.AnalysisMemoCounters()
	runtime.ReadMemStats(&p.mem)
	var ru syscall.Rusage
	// RUSAGE_SELF with a valid buffer cannot fail.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	p.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return p
}

// addPhaseMetrics records the memo and runtime deltas between two
// snapshots, per delivered visit.
func addPhaseMetrics(out map[string]float64, a, b phaseCounters, visits int64) {
	hits, misses := b.hits-a.hits, b.misses-a.misses
	if hits+misses > 0 {
		out["measure.memo_hit_ratio"] = float64(hits) / float64(hits+misses)
	}
	out["measure.fresh_analyses"] = float64(misses)
	out["runtime.gc_cycles"] = float64(b.mem.NumGC - a.mem.NumGC)
	out["runtime.gc_cpu_fraction"] = b.mem.GCCPUFraction
	if visits > 0 {
		out["runtime.allocs_per_visit"] = float64(b.mem.Mallocs-a.mem.Mallocs) / float64(visits)
		out["runtime.alloc_bytes_per_visit"] = float64(b.mem.TotalAlloc-a.mem.TotalAlloc) / float64(visits)
	}
}

// addLedgerMetrics records the campaign engine's accounting.
func addLedgerMetrics(out map[string]float64, p cookiewalk.Progress) {
	out["campaign.fresh"] = float64(p.Done - p.Replayed)
	out["campaign.replayed"] = float64(p.Replayed)
	out["campaign.errors"] = float64(p.Errors)
	out["campaign.retries"] = float64(p.Retries)
	out["campaign.breaker_trips"] = float64(p.BreakerTrips)
}

// addVisitMetrics records the Crawler.Visit spans and the farm time
// the traced phase accumulated.
func (t *tracer) addVisitMetrics(out map[string]float64) {
	t.mu.Lock()
	durs := make([]float64, len(t.visitDurs))
	var busy int64
	for i, d := range t.visitDurs {
		durs[i] = float64(d) / 1e3
		busy += d
	}
	t.mu.Unlock()
	if len(durs) > 0 {
		asc := sorted(durs)
		out["measure.visit_p50_us"] = percentile(asc, 50)
		out["measure.visit_p99_us"] = percentile(asc, 99)
		out["measure.visit_busy_s"] = float64(busy) / 1e9
		out["webfarm.share"] = float64(t.farm.busy()) / float64(busy)
		out["webfarm.requests_per_visit"] = float64(t.farm.requests.Load()) / float64(len(durs))
	}
	out["webfarm.busy_s"] = t.farm.busy().Seconds()
}

// probePages times the stages of a visit one at a time on a sample of
// distinct pages, on one goroutine so the farm time inside each stage
// can be subtracted exactly: fetch and compose are reported without
// the webfarm time they include. It also times the observation codec
// on the sampled pages' observations.
func probePages(ctx context.Context, s *cookiewalk.Study, limit int, out map[string]float64) error {
	c := s.Crawler()
	var farm farmTimer
	transport := farm.wrap(s.Transport())
	mainSel := dom.MustCompileSelector("main")
	targets := s.Targets()
	stride := len(targets)/limit + 1
	seen := map[uint64]bool{}
	var fetch, compose, parse, detect, classify time.Duration
	var obs []measure.Observation
	for _, vpName := range []string{"Germany", "US East"} {
		vp, _ := vantage.ByName(vpName)
		for i := 0; i < len(targets); i += stride {
			b := browser.New(transport, vp)
			farm0, t0 := farm.busy(), time.Now()
			fr, err := b.FetchTopDomain(targets[i])
			if err != nil {
				return fmt.Errorf("probe fetch %s: %w", targets[i], err)
			}
			if seen[fr.Fingerprint] {
				continue
			}
			seen[fr.Fingerprint] = true
			farm1, t1 := farm.busy(), time.Now()
			page := b.Compose(fr)
			farm2, t2 := farm.busy(), time.Now()
			fetch += t1.Sub(t0) - (farm1 - farm0)
			compose += t2.Sub(t1) - (farm2 - farm1)

			t3 := time.Now()
			dom.Parse(fr.Body)
			t4 := time.Now()
			core.Detect(page.Doc)
			t5 := time.Now()
			if body := page.Doc.Body(); body != nil {
				langdetect.Detect(body.Text())
				content := body
				if m := page.Doc.Query(mainSel); m != nil {
					content = m
				}
				categorize.Classify(content.Text())
			}
			t6 := time.Now()
			parse += t4.Sub(t3)
			detect += t5.Sub(t4)
			classify += t6.Sub(t5)
			obs = append(obs, c.Visit(ctx, vp, targets[i], measure.VisitOpts{}))
		}
	}
	n := float64(len(obs))
	if n == 0 {
		return errors.New("probe: no page sampled")
	}
	us := func(d time.Duration) float64 { return float64(d) / 1e3 / n }
	out["browser.fetch_us"] = us(fetch)
	out["browser.compose_us"] = us(compose)
	out["dom.parse_us"] = us(parse)
	out["core.detect_us"] = us(detect)
	out["core.classify_us"] = us(classify)

	// The codec costs a few hundred nanoseconds a record: time whole
	// passes over the sample, repeated past the timer's resolution.
	codec := measure.ObservationCodec{}
	encoded := make([][]byte, len(obs))
	var passes int
	t0 := time.Now()
	for passes == 0 || time.Since(t0) < 50*time.Millisecond {
		for i, o := range obs {
			b, err := codec.Encode(o)
			if err != nil {
				return err
			}
			encoded[i] = b
		}
		passes++
	}
	out["measure.codec_encode_us"] = float64(time.Since(t0)) / 1e3 / (n * float64(passes))
	passes = 0
	t0 = time.Now()
	for passes == 0 || time.Since(t0) < 50*time.Millisecond {
		for _, b := range encoded {
			if _, err := codec.Decode(b); err != nil {
				return err
			}
		}
		passes++
	}
	out["measure.codec_decode_us"] = float64(time.Since(t0)) / 1e3 / (n * float64(passes))
	return nil
}

// probeEngine times campaign.Run with a visit that does nothing, over
// the same targets and vantage-point count as the landscape crawl: the
// engine's own cost per visit (sharding, workers, in-order delivery).
func probeEngine(ctx context.Context, targets []string, out map[string]float64) error {
	visits := 0
	start := time.Now()
	for _, label := range measure.LandscapeCampaignLabels() {
		_, err := campaign.Run(ctx, campaign.Config{Label: label}, targets,
			func(context.Context, string) (measure.Observation, error) { return measure.Observation{}, nil },
			func(campaign.Result[measure.Observation]) { visits++ })
		if err != nil {
			return err
		}
	}
	out["campaign.overhead_us_per_visit"] = float64(time.Since(start)) / 1e3 / float64(visits)
	return nil
}

// probeLayers times the layers the measured phase does not span: the
// universe generation that dominates set-up, the stages of a visit on
// sampled pages, the observation codec and the campaign engine.
func probeLayers(ctx context.Context, s *cookiewalk.Study, out map[string]float64) error {
	cfg := s.Crawler().Reg.Config()
	start := time.Now()
	synthweb.Generate(synthweb.Config{Seed: cfg.Seed, FillerScale: cfg.FillerScale})
	out["synthweb.generate_s"] = time.Since(start).Seconds()
	if err := probePages(ctx, s, probePageLimit, out); err != nil {
		return err
	}
	return probeEngine(ctx, s.Targets(), out)
}

// journalScan holds the landscape journals of a crawl: their on-disk
// size, and the time campaign.CheckJournal takes to verify them.
type journalScan struct {
	files []journalFile
	bytes int64
}

type journalFile struct {
	data   []byte
	lo, hi int
}

// add reads the landscape journals a crawl of targets left under dir.
func (j *journalScan) add(dir string, targets int) error {
	shards := campaign.Config{}.EffectiveShards(targets)
	for _, label := range measure.LandscapeCampaignLabels() {
		for s := 0; s < shards; s++ {
			data, err := os.ReadFile(filepath.Join(dir, campaign.PathLabel(label), campaign.ShardFilename(s)))
			if err != nil {
				return fmt.Errorf("journal scan: %w", err)
			}
			lo, hi := campaign.ShardRange(targets, shards, s)
			j.files = append(j.files, journalFile{data, lo, hi})
			j.bytes += int64(len(data))
		}
	}
	return nil
}

// addMetrics verifies every journal read, in passes repeated past the
// timer's resolution, and records the size and the scan rate.
func (j *journalScan) addMetrics(out map[string]float64) error {
	out["campaign.journal_bytes"] = float64(j.bytes)
	if j.bytes == 0 {
		return nil
	}
	var passes int
	start := time.Now()
	for passes == 0 || time.Since(start) < 100*time.Millisecond {
		for _, f := range j.files {
			if err := campaign.CheckJournal(f.data, f.lo, f.hi); err != nil {
				return fmt.Errorf("journal scan [%d,%d): %w", f.lo, f.hi, err)
			}
		}
		passes++
	}
	out["campaign.journal_scan_mb_per_s"] = float64(j.bytes) * float64(passes) / 1e6 / time.Since(start).Seconds()
	return nil
}
