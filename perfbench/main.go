// Command perfbench is the repository benchmark. It runs one workload
// — or, with -workload all, every workload in turn — and checks the
// workload's output before it reports a number.
//
// Every measured repetition runs in a fresh child process: the
// analysis memo is process-global, so a second crawl in the same
// process would measure memo hits instead of the work a user's run
// does. The parent only starts children, reads their results and
// their resource usage, and aggregates.
//
//	perfbench -workload landscape -seed 42 -seconds 25 -trace 0
//
// With -trace 0 the last line of standard output is one JSON object
// holding every end-to-end metric (medians over the repetitions);
// with -trace 1 it holds every per-layer metric, taken from a traced
// child next to untraced reference children. perfbench/run.sh builds
// the command from a checkout and runs it; see perfbench/README.md.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"syscall"
	"time"
)

// metric is one reported number's name and unit.
type metric struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, reported on
// every workload with -trace 0.
//
// Time is CPU time, not wall time. On the shared two-vCPU virtual
// machine the benchmark was built on, the hypervisor takes 15% or more
// of a crawl's CPU away at times (steal), so wall-clock medians of
// whole 25-second runs spread 14-18% from run to run where CPU time
// spread 2-7%. Wall time and throughput are still measured and printed
// (wall_s, visits_per_s among the per-layer metrics and in the summary
// of -workload all). setup_s is wall time: the wait before a crawl
// starts.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"cpu_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the traced run's metrics, reported on every workload
// with -trace 1, followed by the untraced reference repetition's
// phaseMetrics. A layer a workload does not exercise reports 0.
var perLayer = append([]metric{
	{"synthweb.generate_s", "s"},
	{"webfarm.requests_per_visit", "count"},
	{"webfarm.busy_s", "s"},
	{"webfarm.share", "ratio"},
	{"browser.fetch_us", "us"},
	{"browser.compose_us", "us"},
	{"dom.parse_us", "us"},
	{"core.detect_us", "us"},
	{"core.classify_us", "us"},
	{"measure.visit_p50_us", "us"},
	{"measure.visit_p99_us", "us"},
	{"measure.visit_busy_s", "s"},
	{"measure.memo_hit_ratio", "ratio"},
	{"measure.fresh_analyses", "count"},
	{"measure.codec_encode_us", "us"},
	{"measure.codec_decode_us", "us"},
	{"campaign.overhead_us_per_visit", "us"},
	{"campaign.journal_bytes", "B"},
	{"campaign.journal_scan_mb_per_s", "MB/s"},
	{"campaign.fresh", "count"},
	{"campaign.replayed", "count"},
	{"campaign.errors", "count"},
	{"campaign.retries", "count"},
	{"campaign.breaker_trips", "count"},
	{"campaign.speedup_2core", "ratio"},
	{"study.landscape_s", "s"},
	{"study.fig4_s", "s"},
	{"study.fig5_s", "s"},
	{"study.revocation_s", "s"},
	{"study.bypass_s", "s"},
	{"study.botcheck_s", "s"},
	{"study.autoreject_s", "s"},
	{"study.ablation_s", "s"},
	{"trend.store_open_ms", "ms"},
	{"trend.query_cache_hit_ratio", "ratio"},
	{"trend.generator_late_ms", "ms"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_cpu_fraction", "ratio"},
	{"runtime.allocs_per_visit", "count"},
	{"runtime.alloc_bytes_per_visit", "B"},
	{"trace.overhead_ratio", "ratio"},
}, phaseMetrics...)

// workload is one benchmark workload: its repetition floor and its
// child processes. BENCHMARK.json says why each exists.
type workload struct {
	name string
	// minReps is the repetition floor of an untraced run: the median
	// of fewer is one noisy sample.
	minReps int
	// phases are the child processes of one repetition, run in order
	// (checkpoint: a crawl, then a replay in a fresh process).
	phases []string
}

var workloads = []workload{
	{"landscape", 3, []string{""}},
	{"trend", 3, []string{""}},
	{"report-all", 5, []string{""}},
	{"checkpoint", 3, []string{"crawl", "replay"}},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// childTimeout bounds one child process, so a hung run ends instead of
// holding the whole benchmark past its limit.
const childTimeout = 150 * time.Second

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: landscape, trend, report-all, checkpoint, or all")
		seed    = flag.Uint64("seed", 42, "seed the workload's inputs are generated from (42 is the reference)")
		seconds = flag.Int("seconds", 25, "how long an untraced run measures; repetitions stop starting once the next would end past it")
		traced  = flag.Int("trace", 0, "1 reports the per-layer metrics of a traced run instead of the end-to-end metrics")
		workdir = flag.String("workdir", ".bench_build", "directory for checkpoints and stores, removed afterwards")
		child   = flag.String("child", "", "internal: run one repetition of this workload in this process")
		phase   = flag.String("phase", "", "internal: the child's phase")
	)
	flag.Parse()

	if *child != "" {
		res, err := runChild(context.Background(), childOpts{
			workload: *child, seed: *seed, traced: *traced == 1, dir: *workdir, phase: *phase,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		out, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		fmt.Println(string(out))
		return
	}

	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	if *name != "all" {
		if _, ok := findWorkload(*name); !ok {
			fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
			os.Exit(2)
		}
	}
	if _, err := os.Stat(goldenReport); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: run from the repository root:", err)
		os.Exit(2)
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	scratch, err := os.MkdirTemp(*workdir, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	p := &parent{self: self, dir: scratch, seed: *seed}
	code := 0
	if *name == "all" {
		code = p.runAll(time.Duration(*seconds)*time.Second, *traced == 1)
	} else {
		w, _ := findWorkload(*name)
		var res result
		if *traced == 1 {
			res, err = p.traced(w)
		} else {
			res, err = p.untraced(w, time.Duration(*seconds)*time.Second)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
			code = 1
		} else {
			line, err := json.Marshal(res.line())
			if err != nil {
				fmt.Fprintln(os.Stderr, "perfbench:", err)
				code = 1
			} else {
				fmt.Println(string(line))
			}
		}
	}
	if err := os.RemoveAll(scratch); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(code)
}

// parent starts and accounts the child processes of one invocation.
type parent struct {
	self string
	dir  string
	seed uint64
	runs int // children started, for unique scratch directories
}

// rep is one repetition's merged child results.
type rep struct {
	values    map[string]float64
	setups    []float64
	rssMB     float64 // the highest peak RSS of its children
	attempted int64
	failed    int64
	digest    string
}

// additive are the child values a multi-phase repetition sums over
// its phases (a checkpoint repetition's measured phase is its crawl
// plus its replay); every other value is taken from the first phase
// that reports it.
var additive = map[string]bool{
	"wall_s": true, "cpu_s": true, "visits": true,
	"campaign.fresh": true, "campaign.replayed": true, "campaign.errors": true,
	"campaign.retries": true, "campaign.breaker_trips": true,
	"measure.fresh_analyses": true, "measure.visit_busy_s": true,
	"runtime.gc_cycles": true, "webfarm.busy_s": true,
}

// repeat runs one repetition of w: its phases, each in a fresh child
// process sharing one scratch directory. Every phase must produce the
// same digest (a replay must equal its crawl). gomaxprocs, when
// positive, pins the children's GOMAXPROCS.
func (p *parent) repeat(w workload, traced bool, gomaxprocs int) (rep, error) {
	p.runs++
	dir := filepath.Join(p.dir, fmt.Sprintf("%s-%d", w.name, p.runs))
	defer os.RemoveAll(dir)
	r := rep{values: map[string]float64{}}
	for _, phase := range w.phases {
		res, rss, err := p.child(w.name, phase, dir, traced, gomaxprocs)
		if err != nil {
			return r, err
		}
		if r.digest != "" && res.Digest != r.digest {
			return r, fmt.Errorf("%s phase output differs from the crawl's", phase)
		}
		r.digest = res.Digest
		for k, v := range res.Values {
			if _, seen := r.values[k]; !seen || additive[k] {
				r.values[k] += v
			}
		}
		r.setups = append(r.setups, res.Values["setup_s"])
		r.rssMB = max(r.rssMB, rss)
		r.attempted += res.Attempted
		r.failed += res.Failed
		if phase == "replay" {
			r.values["replay_s"] = res.Values["wall_s"]
		}
	}
	// A multi-phase repetition's measured phase is all of its phases.
	r.values["visits_per_s"] = r.values["visits"] / r.values["wall_s"]
	return r, nil
}

// child runs one child process and returns its result and peak RSS.
func (p *parent) child(workload, phase, dir string, traced bool, gomaxprocs int) (*childResult, float64, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, p.self, "-child", workload, "-phase", phase,
		"-seed", strconv.FormatUint(p.seed, 10), "-trace", trace, "-workdir", dir)
	cmd.Env = os.Environ()
	if gomaxprocs > 0 {
		cmd.Env = append(cmd.Env, "GOMAXPROCS="+strconv.Itoa(gomaxprocs))
	}
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, 0, fmt.Errorf("child %s %s: %w", workload, phase, err)
	}
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	var res childResult
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, 0, fmt.Errorf("child %s %s: reading result: %w", workload, phase, err)
	}
	var rss float64
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rss = float64(ru.Maxrss) / 1024 // kilobytes on Linux
	}
	return &res, rss, nil
}

// result is an invocation's output: per metric its samples, in order.
type result struct {
	metrics   []metric
	samples   map[string][]float64
	attempted int64
	failed    int64
}

// value is a metric's reported number: the median of its samples.
func (r result) value(name string) float64 {
	if s := r.samples[name]; len(s) > 0 {
		return median(s)
	}
	return 0
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// line is the JSON result line. A result only exists once every check
// passed, so it is always correct.
func (r result) line() resultLine {
	l := resultLine{Correct: true, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, m := range r.metrics {
		l.Metrics[m.name] = metricValue{Value: r.value(m.name), Unit: m.unit}
	}
	return l
}

// untraced repeats w in fresh processes for the measured time (at
// least minReps times) and reports the end-to-end metrics as medians.
func (p *parent) untraced(w workload, budget time.Duration) (result, error) {
	res := result{metrics: endToEnd, samples: map[string][]float64{}}
	start := time.Now()
	for n := 0; ; n++ {
		t0 := time.Now()
		r, err := p.repeat(w, false, 0)
		if err != nil {
			return res, err
		}
		last := time.Since(t0)
		res.samples["setup_s"] = append(res.samples["setup_s"], r.setups...)
		res.samples["peak_rss_mb"] = append(res.samples["peak_rss_mb"], r.rssMB)
		for k, v := range r.values {
			if k != "setup_s" {
				res.samples[k] = append(res.samples[k], v)
			}
		}
		res.attempted += r.attempted
		res.failed += r.failed
		if n+1 >= w.minReps && time.Since(start)+last > budget {
			break
		}
	}
	return res, nil
}

// traced reports the per-layer metrics: one traced repetition beside
// an untraced reference (for the tracing overhead and the workload's
// phase metrics) and an untraced single-core repetition (for the
// two-core speedup).
func (p *parent) traced(w workload) (result, error) {
	res := result{metrics: perLayer, samples: map[string][]float64{}}
	ref, err := p.repeat(w, false, 0)
	if err != nil {
		return res, err
	}
	one, err := p.repeat(w, false, 1)
	if err != nil {
		return res, err
	}
	tr, err := p.repeat(w, true, 0)
	if err != nil {
		return res, err
	}
	if tr.digest != ref.digest || one.digest != ref.digest {
		return res, errors.New("traced or single-core output differs from the reference run's")
	}
	for k, v := range tr.values {
		res.samples[k] = []float64{v}
	}
	for _, m := range phaseMetrics {
		if v, ok := ref.values[m.name]; ok {
			res.samples[m.name] = []float64{v}
		}
	}
	// CPU time, not wall time: on a shared host the wall clock of two
	// single runs differs by more than the overhead being measured.
	res.samples["trace.overhead_ratio"] = []float64{tr.values["cpu_s"] / ref.values["cpu_s"]}
	res.samples["campaign.speedup_2core"] = []float64{ref.values["visits_per_s"] / one.values["visits_per_s"]}
	res.attempted = ref.attempted + one.attempted + tr.attempted
	res.failed = ref.failed + one.failed + tr.failed
	return res, nil
}

// phaseMetrics are the wall-clock and workload-specific numbers of an
// untraced repetition: the summary of -workload all prints them beside
// the end-to-end metrics, and the traced run reports them from its
// reference repetition.
var phaseMetrics = []metric{
	{"wall_s", "s"},
	{"visits_per_s", "1/s"},
	{"replay_s", "s"},
	{"round_first_s", "s"},
	{"round_delta_s", "s"},
	{"query_p50_ms", "ms"},
	{"query_p99_ms", "ms"},
}

// runAll runs every workload, each repetition in fresh processes, and
// prints every metric with its unit, median, quartiles and sample
// count. It returns the exit code: non-zero when any check failed.
func (p *parent) runAll(budget time.Duration, traced bool) int {
	code := 0
	for _, w := range workloads {
		fmt.Printf("== %s (seed %d)\n", w.name, p.seed)
		res, err := p.untraced(w, budget)
		if err != nil {
			fmt.Printf("FAILED: %v\n\n", err)
			code = 1
			continue
		}
		fmt.Printf("%-32s %-6s %12s %12s %12s %6s\n", "metric", "unit", "median", "q1", "q3", "n")
		for _, m := range append(append([]metric{}, endToEnd...), phaseMetrics...) {
			s := res.samples[m.name]
			if len(s) == 0 {
				continue
			}
			q1, q2, q3 := quartiles(s)
			fmt.Printf("%-32s %-6s %12.4f %12.4f %12.4f %6d\n", m.name, m.unit, q2, q1, q3, len(s))
		}
		if n := res.samples["query_n"]; len(n) > 0 {
			fmt.Printf("%-32s %-6s %12.0f   (queries per repetition, open loop at %d/s on one connection;"+
				" p%g is the highest percentile with %d samples beyond it in every repetition)\n",
				"query_n", "count", median(n), queryRate, slices.Min(res.samples["query_tail_p"]), minBeyond)
		}
		fmt.Printf("%-32s %-6s %12.6f   (%d failed of %d attempted)\n", "failed_ratio", "ratio",
			float64(res.failed)/float64(res.attempted), res.failed, res.attempted)
		if traced {
			tr, err := p.traced(w)
			if err != nil {
				fmt.Printf("FAILED (traced): %v\n\n", err)
				code = 1
				continue
			}
			for _, m := range perLayer {
				fmt.Printf("%-32s %-6s %12.4f\n", m.name, m.unit, tr.value(m.name))
			}
		}
		fmt.Println()
	}
	return code
}
