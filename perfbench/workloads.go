package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"cookiewalk"
	"cookiewalk/internal/campaign"
	"cookiewalk/internal/measure"
	"cookiewalk/internal/report"
	"cookiewalk/internal/trend"
	"cookiewalk/internal/vantage"
)

// Workload parameters. Universe scales are the largest at which a run
// still fits several repetitions into the measured time.
const (
	landscapeScale  = 1
	reportScale     = 0.02 // the golden report's parameters
	reportReps      = 2
	checkpointScale = 0.25
	trendScale      = 0.25
	trendRounds     = 4
	// queryRate is the open-loop request rate of the trend client. Over
	// ~6 s of rounds it yields the 1 000 samples a p99 with ten samples
	// beyond it needs; a higher rate would tie the workload's CPU time
	// more closely to its noisy wall time, since the client runs for as
	// long as the rounds take.
	queryRate = 200
	// probePageLimit bounds the distinct pages the traced run times
	// stage by stage.
	probePageLimit = 1500
)

// goldenReport is the byte-exact report-all output at seed 42.
const goldenReport = "testdata/golden_all.txt"

// childOpts is what one child process is asked to run.
type childOpts struct {
	workload string
	seed     uint64
	traced   bool
	dir      string // scratch directory this child may write under
	phase    string // checkpoint only: "crawl" or "replay"
}

// childResult is one child's measurements, printed as JSON on the
// last line of its standard output.
type childResult struct {
	Values    map[string]float64 `json:"values"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	// Digest condenses the output the workload checked, so the parent
	// can compare runs that must agree (a crawl and its replay, a
	// traced run and the untraced reference).
	Digest string `json:"digest"`
}

func newChildResult() *childResult { return &childResult{Values: map[string]float64{}} }

// runChild dispatches a child to its workload.
func runChild(ctx context.Context, o childOpts) (*childResult, error) {
	switch o.workload {
	case "landscape":
		return runCrawl(ctx, o, landscapeScale, "", false)
	case "trend":
		return runTrend(ctx, o)
	case "report-all":
		return runReportAll(ctx, o)
	case "checkpoint":
		if o.phase != "crawl" && o.phase != "replay" {
			return nil, fmt.Errorf("checkpoint: unknown phase %q", o.phase)
		}
		return runCrawl(ctx, o, checkpointScale, filepath.Join(o.dir, "checkpoint"), o.phase == "replay")
	}
	return nil, fmt.Errorf("unknown workload %q", o.workload)
}

// checkLandscape verifies a crawl against the universe's ground truth:
// every target visited from every vantage point without a visit error
// (the target list holds only reachable sites), and every ground-truth
// cookiewall a vantage point is shown detected there. It returns a
// digest of the crawl's Table 1, prevalence and detection union.
func checkLandscape(c *measure.Crawler, l *measure.Landscape, targets []string) (string, error) {
	onTargets := map[string]bool{}
	for _, d := range targets {
		onTargets[d] = true
	}
	for _, vp := range vantage.All() {
		res, ok := l.Result(vp.Name)
		if !ok {
			return "", fmt.Errorf("landscape: no result for %s", vp.Name)
		}
		if res.Visited != len(targets) {
			return "", fmt.Errorf("landscape %s: %d of %d targets visited", vp.Name, res.Visited, len(targets))
		}
		if res.Errors != 0 {
			return "", fmt.Errorf("landscape %s: %d visit errors", vp.Name, res.Errors)
		}
		detected := map[string]bool{}
		for _, o := range res.Cookiewalls {
			detected[o.Domain] = true
		}
		for _, site := range c.Reg.CookiewallSites() {
			if onTargets[site.Domain] && site.ShowsBannerTo(vp.Name) && !detected[site.Domain] {
				return "", fmt.Errorf("landscape %s: ground-truth cookiewall %s not detected", vp.Name, site.Domain)
			}
		}
	}
	h := sha256.New()
	overall, top1k, perCountry := c.Prevalence(l)
	io.WriteString(h, report.Table1(c.Table1(l)))
	io.WriteString(h, report.PrevalenceReport(overall, top1k, perCountry))
	io.WriteString(h, strings.Join(l.UnionDetections(), "\n"))
	return hex.EncodeToString(h.Sum(nil)), nil
}

// checkPaperNumbers pins the full-scale seed-42 crawl to the paper's
// headline numbers, as TestFullScalePaperNumbers does.
func checkPaperNumbers(c *measure.Crawler, l *measure.Landscape) error {
	overall, top1k, perCountry := c.Prevalence(l)
	prev := report.PrevalenceReport(overall, top1k, perCountry)
	acc := report.AccuracyReport(c.Accuracy(l, 1000, 42))
	for _, want := range []string{"overall: 0.62%", "2.90%", "8.50%"} {
		if !strings.Contains(prev, want) {
			return fmt.Errorf("prevalence: missing %q in\n%s", want, prev)
		}
	}
	for _, want := range []string{"precision 98.2%", "recall 100%"} {
		if !strings.Contains(acc, want) {
			return fmt.Errorf("accuracy: missing %q in\n%s", want, acc)
		}
	}
	return nil
}

// setCrawl records a crawl phase's end-to-end numbers; a visit error
// is a failed operation.
func (r *childResult) setCrawl(wall time.Duration, before, after phaseCounters, visits, errs int64) {
	r.Values["wall_s"] = wall.Seconds()
	r.Values["cpu_s"] = (after.cpu - before.cpu).Seconds()
	r.Values["visits"] = float64(visits)
	r.Values["visits_per_s"] = float64(visits) / wall.Seconds()
	r.Attempted += visits
	r.Failed += errs
}

// runCrawl is one landscape crawl on a fresh study: the landscape
// workload (full scale, no checkpoint) or a phase of the checkpoint
// workload, which journals under ckDir and, with resume, replays those
// journals in a later process without a fresh visit.
func runCrawl(ctx context.Context, o childOpts, scale float64, ckDir string, resume bool) (*childResult, error) {
	r := newChildResult()
	led := newLedger()
	cfg := cookiewalk.Config{Seed: o.seed, Scale: scale, Progress: led.observe, CheckpointDir: ckDir, Resume: resume}
	var tr *tracer
	if o.traced {
		tr = new(tracer)
		cfg.WrapTransport = tr.farm.wrap
	}
	start := time.Now()
	s := cookiewalk.New(cfg)
	r.Values["setup_s"] = time.Since(start).Seconds()
	targets := s.Targets()

	before := snapshotCounters()
	start = time.Now()
	var l *measure.Landscape
	var err error
	if tr != nil {
		l, err = crawlLandscape(ctx, s.Crawler(), targets, ckDir, resume, tr)
	} else {
		l, err = s.Crawler().Landscape(ctx, vantage.All(), targets)
	}
	wall := time.Since(start)
	after := snapshotCounters()
	if err != nil {
		return nil, fmt.Errorf("crawl: %w", err)
	}
	totals := led.totals()
	r.setCrawl(wall, before, after, totals.Done, totals.Errors)
	if resume && (totals.Replayed != totals.Done || totals.Done == 0) {
		return nil, fmt.Errorf("replay: %d of %d deliveries replayed, want all", totals.Replayed, totals.Done)
	}
	if r.Digest, err = checkLandscape(s.Crawler(), l, targets); err != nil {
		return nil, err
	}
	if o.seed == 42 && scale == 1 {
		if err := checkPaperNumbers(s.Crawler(), l); err != nil {
			return nil, err
		}
	}
	if tr != nil {
		addPhaseMetrics(r.Values, before, after, totals.Done)
		addLedgerMetrics(r.Values, totals)
		tr.addVisitMetrics(r.Values)
		if resume {
			return r, nil // the crawl phase times the layers
		}
		if ckDir != "" {
			var scan journalScan
			if err := scan.add(ckDir, len(targets)); err != nil {
				return nil, err
			}
			if err := scan.addMetrics(r.Values); err != nil {
				return nil, err
			}
		}
		if err := probeLayers(ctx, s, r.Values); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// studyMetric names the per-experiment time of the traced report-all
// run: the experiments that run campaigns of their own, plus table1,
// the first in report order, which pays for the landscape crawl every
// other section is derived from.
var studyMetric = map[cookiewalk.Experiment]string{
	cookiewalk.ExpTable1:     "study.landscape_s",
	cookiewalk.ExpFigure4:    "study.fig4_s",
	cookiewalk.ExpFigure5:    "study.fig5_s",
	cookiewalk.ExpRevocation: "study.revocation_s",
	cookiewalk.ExpBypass:     "study.bypass_s",
	cookiewalk.ExpBotCheck:   "study.botcheck_s",
	cookiewalk.ExpAutoReject: "study.autoreject_s",
	cookiewalk.ExpAblation:   "study.ablation_s",
}

// runReportAll renders every experiment at the golden parameters.
func runReportAll(ctx context.Context, o childOpts) (*childResult, error) {
	r := newChildResult()
	led := newLedger()
	cfg := cookiewalk.Config{Seed: o.seed, Scale: reportScale, Reps: reportReps, Progress: led.observe}
	var tr *tracer
	if o.traced {
		tr = new(tracer)
		cfg.WrapTransport = tr.farm.wrap
	}
	start := time.Now()
	s := cookiewalk.New(cfg)
	r.Values["setup_s"] = time.Since(start).Seconds()
	targets := s.Targets()

	before := snapshotCounters()
	start = time.Now()
	if tr != nil {
		// One experiment at a time in report order: each one's time is
		// what it adds on top of the artefacts already resolved.
		for _, exp := range cookiewalk.Experiments() {
			t0 := time.Now()
			if _, err := s.ReportContext(ctx, exp); err != nil {
				return nil, err
			}
			if name, ok := studyMetric[exp]; ok {
				r.Values[name] = time.Since(t0).Seconds()
			}
		}
	}
	text, err := s.ReportContext(ctx, cookiewalk.ExpAll)
	wall := time.Since(start)
	after := snapshotCounters()
	if err != nil {
		return nil, err
	}
	totals := led.totals()
	if totals.Errors != 0 {
		return nil, fmt.Errorf("report-all: %d visit errors", totals.Errors)
	}
	r.setCrawl(wall, before, after, totals.Done, totals.Errors)
	l := s.CachedLandscape()
	if l == nil {
		return nil, errors.New("report-all: no landscape crawled")
	}
	if _, err := checkLandscape(s.Crawler(), l, targets); err != nil {
		return nil, err
	}
	sum := sha256.Sum256([]byte(text))
	r.Digest = hex.EncodeToString(sum[:])
	if o.seed == 42 {
		want, err := os.ReadFile(goldenReport)
		if err != nil {
			return nil, err
		}
		if !bytes.Equal([]byte(text), want) {
			return nil, fmt.Errorf("report-all: output differs from %s", goldenReport)
		}
	}
	if tr != nil {
		addPhaseMetrics(r.Values, before, after, totals.Done)
		addLedgerMetrics(r.Values, totals)
		r.Values["webfarm.busy_s"] = tr.farm.busy().Seconds()
		r.Values["webfarm.requests_per_visit"] = float64(tr.farm.requests.Load()) / float64(totals.Done)
		if err := probeLayers(ctx, s, r.Values); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// trendQueries is the query mix the open-loop client cycles through.
var trendQueries = []string{
	"/v1/trends/prevalence",
	"/v1/trends/vp_banner_rate?vp=Germany",
	"/v1/trends/cookiewalls",
	"/v1/rounds",
	"/v1/trends/price_median",
	"/v1/status",
}

// queryClient is the trend workload's open-loop load generator: one
// goroutine on one keep-alive loopback connection, sending on a fixed
// schedule and timing each request from when it was due.
type queryClient struct {
	loop   *openLoop
	failed int64
}

func (q *queryClient) run(client *http.Client, base string, stop <-chan struct{}) {
	timer := time.NewTimer(0)
	defer timer.Stop()
	<-timer.C
	for i := 0; ; i++ {
		due := q.loop.due()
		if wait := time.Until(due); wait > 0 {
			timer.Reset(wait)
			select {
			case <-stop:
				return
			case <-timer.C:
			}
		} else {
			select {
			case <-stop:
				return
			default:
			}
		}
		sent := time.Now()
		resp, err := client.Get(base + trendQueries[i%len(trendQueries)])
		if err == nil {
			_, err = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if err == nil && (resp.StatusCode < 200 || resp.StatusCode > 299) {
				err = fmt.Errorf("status %d", resp.StatusCode)
			}
		}
		q.loop.record(due, sent, time.Now())
		if err != nil {
			q.failed++
			fmt.Fprintf(os.Stderr, "perfbench: trend query %s: %v\n", trendQueries[i%len(trendQueries)], err)
		}
	}
}

// runTrend is the trendd loop: delta-crawl rounds over a trend store,
// each a fresh study checkpointed per round with Resume and pruning and
// the resilience overlays a deployment sets, while the open-loop
// client queries the API.
func runTrend(ctx context.Context, o childOpts) (*childResult, error) {
	r := newChildResult()
	storeDir := filepath.Join(o.dir, "store")
	base := cookiewalk.Config{
		Seed: o.seed, Scale: trendScale,
		VisitTimeout:     30 * time.Second,
		VisitRetries:     2,
		BreakerThreshold: 5,
	}
	var tr *tracer
	if o.traced {
		tr = new(tracer)
		base.WrapTransport = tr.farm.wrap
	}

	start := time.Now()
	probe := cookiewalk.New(base)
	targets := probe.Targets()
	manifest := trend.Manifest{
		Seed: o.seed, Scale: trendScale, Reps: 5,
		Targets: len(targets), TargetsHash: campaign.HashTargets(targets),
	}
	store, err := trend.Open(storeDir, manifest)
	if err != nil {
		return nil, err
	}
	r.Values["setup_s"] = time.Since(start).Seconds()
	defer store.Close()

	roundDir := func(round int) string { return filepath.Join(o.dir, "rounds", fmt.Sprintf("round-%04d", round)) }
	var (
		ledgers []*ledger
		took    []float64
		scan    journalScan
		scanErr error
	)
	runner := &trend.Runner{
		Store:  store,
		Rounds: trendRounds,
		Run: func(ctx context.Context, round int) (measure.RoundSummary, error) {
			cfg := base
			cfg.CheckpointDir = roundDir(round)
			cfg.Resume = true
			led := newLedger()
			ledgers = append(ledgers, led)
			cfg.Progress = led.observe
			s := cookiewalk.New(cfg)
			var sum measure.RoundSummary
			var l *measure.Landscape
			if tr == nil {
				var err error
				if sum, err = s.RoundSummary(ctx); err != nil {
					return sum, err
				}
				l = s.CachedLandscape()
			} else {
				var err error
				if l, err = crawlLandscape(ctx, s.Crawler(), s.Targets(), cfg.CheckpointDir, true, tr); err != nil {
					return sum, err
				}
				de, _ := l.Result("Germany")
				sum = s.Crawler().SummarizeRound(l, s.Crawler().Verified(de.Cookiewalls))
			}
			// Checked inside the timed round: ~7 ms against a ~1.4 s
			// round at this scale, cheaper than keeping every round's
			// universe alive until the loop ends.
			if _, err := checkLandscape(s.Crawler(), l, s.Targets()); err != nil {
				return sum, fmt.Errorf("round %d: %w", round, err)
			}
			return sum, nil
		},
		OnRound: func(st trend.RoundStats) {
			took = append(took, st.Took.Seconds())
			if tr != nil && scanErr == nil {
				scanErr = scan.add(roundDir(st.Round), len(targets))
			}
			if err := os.RemoveAll(roundDir(st.Round)); err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: pruning round %d: %v\n", st.Round, err)
			}
		},
	}

	server := trend.NewServer(trend.ServerConfig{Store: store, Runner: runner})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	var conns atomic.Int64
	srv := &http.Server{
		Handler: server.Handler(),
		ConnState: func(_ net.Conn, st http.ConnState) {
			if st == http.StateNew {
				conns.Add(1)
			}
		},
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	transport := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	client := &http.Client{Transport: transport, Timeout: 10 * time.Second}

	before := snapshotCounters()
	start = time.Now()
	q := &queryClient{loop: newOpenLoop(start, queryRate)}
	stop := make(chan struct{})
	clientDone := make(chan struct{})
	go func() {
		defer close(clientDone)
		q.run(client, "http://"+ln.Addr().String(), stop)
	}()
	loopErr := runner.Loop(ctx)
	wall := time.Since(start)
	close(stop)
	<-clientDone
	after := snapshotCounters()
	transport.CloseIdleConnections()
	cache := server.CacheStats()
	if err := srv.Close(); err != nil {
		return nil, err
	}
	if err := <-served; !errors.Is(err, http.ErrServerClosed) {
		return nil, err
	}
	if loopErr != nil {
		return nil, loopErr
	}
	if scanErr != nil {
		return nil, scanErr
	}

	var totals cookiewalk.Progress
	for _, led := range ledgers {
		t := led.totals()
		totals.Done += t.Done
		totals.Errors += t.Errors
		totals.Replayed += t.Replayed
		totals.Retries += t.Retries
		totals.BreakerTrips += t.BreakerTrips
	}
	if totals.Errors != 0 {
		return nil, fmt.Errorf("trend: %d visit errors", totals.Errors)
	}
	r.setCrawl(wall, before, after, totals.Done, totals.Errors)

	// Every round crawls the same universe, so every summary must be
	// the same bytes.
	recs := store.Rounds(0, store.Len())
	if len(recs) != trendRounds {
		return nil, fmt.Errorf("trend: store holds %d rounds, want %d", len(recs), trendRounds)
	}
	first, err := json.Marshal(recs[0].Summary)
	if err != nil {
		return nil, err
	}
	for _, rec := range recs[1:] {
		b, err := json.Marshal(rec.Summary)
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(b, first) {
			return nil, fmt.Errorf("trend: round %d summary differs from round 0", rec.Round)
		}
	}
	sum := sha256.Sum256(first)
	r.Digest = hex.EncodeToString(sum[:])

	n := len(q.loop.latency)
	r.Attempted += int64(n)
	r.Failed += q.failed
	if q.failed > 0 {
		return nil, fmt.Errorf("trend: %d of %d queries failed", q.failed, n)
	}
	if c := conns.Load(); c != 1 {
		return nil, fmt.Errorf("trend: the client opened %d connections, want one keep-alive connection", c)
	}
	lat := millis(q.loop.latency)
	asc := sorted(lat)
	r.Values["query_p50_ms"] = percentile(asc, 50)
	r.Values["query_p99_ms"] = percentile(asc, 99)
	r.Values["query_n"] = float64(n)
	r.Values["query_tail_p"] = tailOf(lat).P
	r.Values["round_first_s"] = took[0]
	r.Values["round_delta_s"] = median(took[1:])

	if tr != nil {
		addPhaseMetrics(r.Values, before, after, totals.Done)
		addLedgerMetrics(r.Values, totals)
		tr.addVisitMetrics(r.Values)
		if err := scan.addMetrics(r.Values); err != nil {
			return nil, err
		}
		r.Values["trend.generator_late_ms"] = percentile(sorted(millis(q.loop.late)), 99)
		if cache.Hits+cache.Misses > 0 {
			r.Values["trend.query_cache_hit_ratio"] = float64(cache.Hits) / float64(cache.Hits+cache.Misses)
		}
		// The restart path: reopen the finished store.
		if err := store.Close(); err != nil {
			return nil, err
		}
		t0 := time.Now()
		reopened, err := trend.Open(storeDir, manifest)
		if err != nil {
			return nil, err
		}
		r.Values["trend.store_open_ms"] = float64(time.Since(t0)) / 1e6
		reopened.Close()
		if err := probeLayers(ctx, probe, r.Values); err != nil {
			return nil, err
		}
	}
	return r, nil
}
