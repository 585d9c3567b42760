package hostgate

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// isCircuitOpen reports whether err wraps the breaker's fail-fast
// error.
func isCircuitOpen(err error) bool {
	var open *circuitOpenError
	return errors.As(err, &open)
}

// fakeClock is a manually advanced clock shared by Now and Sleep so
// rate-limiter tests never wait on real time.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Unix(1_700_000_000, 0)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func (c *fakeClock) Sleep(ctx context.Context, d time.Duration) error {
	if err := context.Cause(ctx); err != nil {
		return err
	}
	c.Advance(d)
	return nil
}

// acquire is one single-attempt request's gate protocol: breaker
// admission, then a rate-limiter token. When the wait fails after
// admission (ctx canceled) it abandons the admission before returning,
// so the caller holds nothing; a nil return leaves the caller owing
// the gate one Report or Abandon.
func acquire(g *Gate, ctx context.Context, host string) error {
	if err := g.Admit(host); err != nil {
		return err
	}
	if err := g.Wait(ctx, host); err != nil {
		g.Abandon(host)
		return err
	}
	return nil
}

func TestNewNilWhenDisabled(t *testing.T) {
	if g := New(Config{}); g != nil {
		t.Fatalf("New with zero config = %v, want nil", g)
	}
	var g *Gate
	if err := acquire(g, context.Background(), "a.example"); err != nil {
		t.Fatalf("nil gate acquire: %v", err)
	}
	if g.Report("a.example", true) {
		t.Fatal("nil gate Report tripped")
	}
}

func TestRateLimiterPacesRequests(t *testing.T) {
	clk := newFakeClock()
	g := New(Config{PerHostRPS: 10, Burst: 2, Now: clk.Now, Sleep: clk.Sleep})
	ctx := context.Background()
	start := clk.Now()
	// Burst of 2 goes through instantly; the next 8 must each wait for
	// a 100ms refill.
	for i := 0; i < 10; i++ {
		if err := acquire(g, ctx, "a.example"); err != nil {
			t.Fatalf("acquire %d: %v", i, err)
		}
	}
	elapsed := clk.Now().Sub(start)
	want := 800 * time.Millisecond
	if elapsed < want || elapsed > want+50*time.Millisecond {
		t.Fatalf("10 acquires at 10 rps burst 2 took %v, want ~%v", elapsed, want)
	}
	// A different host has its own bucket: no waiting.
	before := clk.Now()
	if err := acquire(g, ctx, "b.example"); err != nil {
		t.Fatalf("acquire other host: %v", err)
	}
	if d := clk.Now().Sub(before); d != 0 {
		t.Fatalf("fresh host waited %v, want 0", d)
	}
}

func TestRateLimiterHonorsContext(t *testing.T) {
	clk := newFakeClock()
	g := New(Config{PerHostRPS: 1, Burst: 1, Now: clk.Now, Sleep: func(ctx context.Context, d time.Duration) error {
		return context.Canceled
	}})
	ctx := context.Background()
	if err := acquire(g, ctx, "a.example"); err != nil {
		t.Fatalf("first acquire: %v", err)
	}
	if err := acquire(g, ctx, "a.example"); !errors.Is(err, context.Canceled) {
		t.Fatalf("acquire after cancel = %v, want context.Canceled", err)
	}
}

func TestBreakerOpensHalfOpensAndCloses(t *testing.T) {
	clk := newFakeClock()
	g := New(Config{BreakerThreshold: 3, BreakerCooldown: time.Second, Now: clk.Now, Sleep: clk.Sleep})
	ctx := context.Background()
	host := "dead.example"

	// Two failures: still closed.
	for i := 0; i < 2; i++ {
		if err := acquire(g, ctx, host); err != nil {
			t.Fatalf("acquire %d: %v", i, err)
		}
		if g.Report(host, true) {
			t.Fatalf("Report %d tripped early", i)
		}
	}
	// Third consecutive failure trips it.
	if err := acquire(g, ctx, host); err != nil {
		t.Fatalf("acquire 3: %v", err)
	}
	if !g.Report(host, true) {
		t.Fatal("threshold-th failure did not trip the breaker")
	}
	// Open: fail fast.
	err := acquire(g, ctx, host)
	if !isCircuitOpen(err) {
		t.Fatalf("acquire while open = %v, want circuit-open", err)
	}
	if isCircuitOpen(fmt.Errorf("wrapped: %w", errors.New("other"))) {
		t.Fatal("an unrelated error classified as circuit-open")
	}
	if !isCircuitOpen(fmt.Errorf("visit: %w", err)) {
		t.Fatal("circuit-open not seen through wrapping")
	}

	// After the cooldown a single probe is admitted; a second caller
	// still fails fast while the probe is in flight.
	clk.Advance(time.Second)
	if err := acquire(g, ctx, host); err != nil {
		t.Fatalf("half-open probe refused: %v", err)
	}
	if err := acquire(g, ctx, host); !isCircuitOpen(err) {
		t.Fatalf("second caller during probe = %v, want circuit-open", err)
	}
	// Probe fails: straight back to open, cooldown restarted.
	if !g.Report(host, true) {
		t.Fatal("failed probe did not re-trip")
	}
	if err := acquire(g, ctx, host); !isCircuitOpen(err) {
		t.Fatalf("after failed probe = %v, want circuit-open", err)
	}

	// Next probe succeeds: breaker closes, traffic flows again.
	clk.Advance(time.Second)
	if err := acquire(g, ctx, host); err != nil {
		t.Fatalf("second probe refused: %v", err)
	}
	if g.Report(host, false) {
		t.Fatal("successful probe reported as trip")
	}
	if err := acquire(g, ctx, host); err != nil {
		t.Fatalf("post-recovery acquire: %v", err)
	}

	trips, denials := g.Counters()
	if trips != 2 {
		t.Fatalf("trips = %d, want 2", trips)
	}
	if denials < 3 {
		t.Fatalf("denials = %d, want >= 3", denials)
	}
}

// TestAbandonReleasesProbe: an admitted half-open probe whose request
// resolves without a health verdict (ctx canceled, deterministic web
// content error) must free the probe slot via Abandon — otherwise the
// host is denied forever.
func TestAbandonReleasesProbe(t *testing.T) {
	clk := newFakeClock()
	g := New(Config{BreakerThreshold: 1, BreakerCooldown: time.Second, Now: clk.Now, Sleep: clk.Sleep})
	ctx := context.Background()
	host := "probe.example"

	if err := acquire(g, ctx, host); err != nil {
		t.Fatalf("acquire: %v", err)
	}
	if !g.Report(host, true) {
		t.Fatal("threshold-1 failure did not trip")
	}
	clk.Advance(time.Second)
	if err := acquire(g, ctx, host); err != nil {
		t.Fatalf("half-open probe refused: %v", err)
	}
	// The probe's request dies without an outcome (say, its visit
	// deadline expired mid-flight): abandon, don't report.
	g.Abandon(host)
	// The slot is free again — the next caller becomes the probe
	// instead of being denied until the end of time.
	if err := acquire(g, ctx, host); err != nil {
		t.Fatalf("probe slot leaked after Abandon: %v", err)
	}
	if g.Report(host, false) {
		t.Fatal("successful probe reported as trip")
	}
	if err := acquire(g, ctx, host); err != nil {
		t.Fatalf("post-recovery acquire: %v", err)
	}
	g.Report(host, false)
}

// TestAcquireReleasesProbeOnCanceledWait: when acquire's rate-limiter
// wait fails AFTER breaker admission claimed the probe slot, acquire
// must release the slot before returning — the caller holds nothing
// and will never call Report or Abandon.
func TestAcquireReleasesProbeOnCanceledWait(t *testing.T) {
	clk := newFakeClock()
	canceled := false
	g := New(Config{
		// A refill rate this slow guarantees the probe attempt must
		// sleep for a token (the burst token is spent up front).
		PerHostRPS:       0.001,
		Burst:            1,
		BreakerThreshold: 1,
		BreakerCooldown:  time.Second,
		Now:              clk.Now,
		Sleep: func(ctx context.Context, d time.Duration) error {
			if canceled {
				return context.Canceled
			}
			clk.Advance(d)
			return nil
		},
	})
	ctx := context.Background()
	host := "slow.example"

	if err := acquire(g, ctx, host); err != nil {
		t.Fatalf("acquire: %v", err)
	}
	g.Report(host, true) // trips (threshold 1)
	clk.Advance(time.Second)
	canceled = true
	// Admission claims the probe; the limiter wait then dies.
	if err := acquire(g, ctx, host); !errors.Is(err, context.Canceled) {
		t.Fatalf("acquire with canceled wait = %v, want context.Canceled", err)
	}
	// The probe slot must have been released internally.
	if err := g.Admit(host); err != nil {
		t.Fatalf("probe slot leaked after canceled wait: %v", err)
	}
	g.Abandon(host)
}

func TestBreakerSuccessResetsStreak(t *testing.T) {
	g := New(Config{BreakerThreshold: 2})
	host := "flaky.example"
	g.Report(host, true)
	g.Report(host, false) // streak reset
	if g.Report(host, true) {
		t.Fatal("tripped without threshold consecutive failures")
	}
	if !g.Report(host, true) {
		t.Fatal("did not trip after threshold consecutive failures")
	}
}

// TestGateHammer drives one Gate from many goroutines across a few
// hosts with mixed outcomes — the -race gate for the shared mutable
// state (buckets, breakers, counters). Invariant checked at the end:
// every denial corresponds to a breaker that was open, and the gate
// never deadlocks.
func TestGateHammer(t *testing.T) {
	clk := newFakeClock()
	g := New(Config{
		PerHostRPS:       1000,
		Burst:            4,
		BreakerThreshold: 5,
		BreakerCooldown:  10 * time.Millisecond,
		Now:              clk.Now,
		Sleep:            clk.Sleep,
	})
	ctx := context.Background()
	hosts := []string{"a.example", "b.example", "c.example", "d.example"}
	var wg sync.WaitGroup
	var ok, denied atomic.Int64
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				host := hosts[(w+i)%len(hosts)]
				err := acquire(g, ctx, host)
				if isCircuitOpen(err) {
					denied.Add(1)
					continue
				}
				if err != nil {
					t.Errorf("acquire: %v", err)
					return
				}
				ok.Add(1)
				// host "d.example" always fails; the rest always succeed.
				g.Report(host, host == "d.example")
			}
		}(w)
	}
	wg.Wait()
	trips, denials := g.Counters()
	if ok.Load() == 0 {
		t.Fatal("no request ever admitted")
	}
	if trips == 0 {
		t.Fatal("always-failing host never tripped its breaker")
	}
	if denials != denied.Load() {
		t.Fatalf("gate counted %d denials, callers saw %d", denials, denied.Load())
	}
}
