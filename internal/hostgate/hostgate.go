// Package hostgate enforces per-host politeness for a crawl: a
// token-bucket rate limiter (requests per second with a burst
// allowance) and a circuit breaker (open after N consecutive
// request-level failures, half-open single probe after a cooldown).
// One Gate is shared by every worker goroutine and every shard of a
// campaign, so the politeness cap holds across the whole process no
// matter how the crawl is parallelized.
//
// Protocol. The breaker is consulted once per LOGICAL request with
// Admit — which may claim the host's single half-open probe slot —
// while the rate limiter is consulted once per wire ATTEMPT with Wait
// (in-request retries pay politeness, not re-admission). An admitted
// request owes the gate exactly one terminal call on every exit path:
// Report when its final outcome is a verdict on transport health, or
// Abandon when it is not (ctx cancellation, deterministic web-content
// failures). A claimed probe slot that is never settled would deny the
// host forever, so the pairing is an invariant, not a courtesy.
//
// Determinism contract. The breaker counts only *final* request
// outcomes — a request that succeeds after in-request retries reports
// success — so on a transport whose every target eventually succeeds
// within the retry budget the breaker never accumulates a failure and
// never opens: the gate is provably inert and cannot perturb
// byte-identical golden runs. The rate limiter can only delay
// requests, never reorder or fail them (except via ctx cancellation),
// which the campaign layer's in-order delivery absorbs.
package hostgate

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// Config tunes a Gate. Zero values disable the corresponding
// mechanism: PerHostRPS <= 0 means no rate limiting, BreakerThreshold
// <= 0 means no circuit breaking.
type Config struct {
	// PerHostRPS caps sustained request rate per host.
	PerHostRPS float64
	// Burst is the token-bucket depth (default 1 when rate limiting is
	// enabled): how many requests may go out back-to-back before the
	// sustained cap bites.
	Burst int
	// BreakerThreshold opens a host's breaker after this many
	// consecutive failed requests (final outcomes, post-retry).
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker blocks a host before
	// admitting a half-open probe (default 30s).
	BreakerCooldown time.Duration

	// Now and Sleep are injectable for tests. Nil means real time.
	// Sleep must honor ctx and return its cancellation cause.
	Now   func() time.Time
	Sleep func(ctx context.Context, d time.Duration) error
}

// circuitOpenError is returned, naming the host, by Admit while a
// host's breaker is open; IsCircuitOpen recognizes it. It is
// definitive for the current request: retrying immediately cannot
// help, the visit should fail fast and be accounted as a visit error.
type circuitOpenError struct{ host string }

func (e *circuitOpenError) Error() string {
	return fmt.Sprintf("hostgate: circuit open for host %q", e.host)
}

// CircuitOpen marks the error structurally so callers can classify it
// without importing this package.
func (e *circuitOpenError) CircuitOpen() bool { return true }

// IsCircuitOpen reports whether err (or anything it wraps) is a
// breaker fail-fast from a Gate.
func IsCircuitOpen(err error) bool {
	type co interface{ CircuitOpen() bool }
	for err != nil {
		if c, ok := err.(co); ok && c.CircuitOpen() {
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

type breakerState int

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

type hostState struct {
	mu sync.Mutex

	// Token bucket: tokens at time last, continuously refilled at
	// PerHostRPS up to Burst.
	tokens float64
	last   time.Time

	// Breaker.
	state    breakerState
	failures int       // consecutive final failures while closed
	openedAt time.Time // when the breaker last opened
	probing  bool      // a half-open probe is in flight
}

// Gate is the shared per-host admission controller. The zero Gate is
// not usable; construct with New.
type Gate struct {
	cfg   Config
	mu    sync.Mutex // guards hosts map only
	hosts map[string]*hostState

	trips   int64 // breaker open transitions (under mu)
	denials int64 // Admit calls refused by an open breaker (under mu)
}

// New returns a Gate for cfg. A nil return means cfg enables nothing —
// callers can skip the gate entirely.
func New(cfg Config) *Gate {
	if cfg.PerHostRPS <= 0 && cfg.BreakerThreshold <= 0 {
		return nil
	}
	if cfg.PerHostRPS > 0 && cfg.Burst <= 0 {
		cfg.Burst = 1
	}
	if cfg.BreakerThreshold > 0 && cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = 30 * time.Second
	}
	return &Gate{cfg: cfg, hosts: make(map[string]*hostState)}
}

func (g *Gate) now() time.Time {
	if g.cfg.Now != nil {
		return g.cfg.Now()
	}
	return time.Now()
}

func (g *Gate) sleep(ctx context.Context, d time.Duration) error {
	if g.cfg.Sleep != nil {
		return g.cfg.Sleep(ctx, d)
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return context.Cause(ctx)
	}
}

func (g *Gate) host(host string) *hostState {
	g.mu.Lock()
	defer g.mu.Unlock()
	h := g.hosts[host]
	if h == nil {
		h = &hostState{
			tokens: float64(g.cfg.Burst),
			last:   g.now(),
		}
		g.hosts[host] = h
	}
	return h
}

// Admit checks host's breaker and admits or refuses one logical
// request: it fails fast with a circuit-open error while the breaker is
// open (counting a denial), and admits a single half-open probe when
// the cooldown has elapsed. Call it once per logical request — the
// breaker judges final outcomes, and the probe slot belongs to the
// whole request including its in-request retries. An admitted caller
// MUST settle the admission with exactly one Report or Abandon on
// every exit path.
func (g *Gate) Admit(host string) error {
	if g == nil || g.cfg.BreakerThreshold <= 0 {
		return nil
	}
	h := g.host(host)
	h.mu.Lock()
	switch h.state {
	case breakerOpen:
		if g.now().Sub(h.openedAt) >= g.cfg.BreakerCooldown {
			// Cooldown elapsed: admit exactly one probe.
			h.state = breakerHalfOpen
			h.probing = true
		} else {
			h.mu.Unlock()
			g.mu.Lock()
			g.denials++
			g.mu.Unlock()
			return &circuitOpenError{host: host}
		}
	case breakerHalfOpen:
		if h.probing {
			// Another request owns the probe; fail fast rather than
			// pile onto a host we believe is down.
			h.mu.Unlock()
			g.mu.Lock()
			g.denials++
			g.mu.Unlock()
			return &circuitOpenError{host: host}
		}
		h.probing = true
	}
	h.mu.Unlock()
	return nil
}

// Wait blocks until host's token bucket admits one request attempt
// (honoring ctx). Call it once per attempt, including in-request
// retries — politeness applies to wire traffic, not to logical
// requests.
func (g *Gate) Wait(ctx context.Context, host string) error {
	if g == nil || g.cfg.PerHostRPS <= 0 {
		return nil
	}
	h := g.host(host)
	for {
		h.mu.Lock()
		now := g.now()
		elapsed := now.Sub(h.last).Seconds()
		if elapsed > 0 {
			h.tokens += elapsed * g.cfg.PerHostRPS
			if max := float64(g.cfg.Burst); h.tokens > max {
				h.tokens = max
			}
			h.last = now
		}
		if h.tokens >= 1 {
			h.tokens--
			h.mu.Unlock()
			return nil
		}
		wait := time.Duration((1 - h.tokens) / g.cfg.PerHostRPS * float64(time.Second))
		h.mu.Unlock()
		if wait < time.Millisecond {
			wait = time.Millisecond
		}
		if err := g.sleep(ctx, wait); err != nil {
			return err
		}
	}
}

// Report records a request's FINAL outcome for host (after the
// browser's in-request retries resolved it) and returns true when this
// report tripped the breaker open. Success closes a half-open breaker
// and clears the failure streak; failure in half-open re-opens
// immediately; BreakerThreshold consecutive failures open a closed
// breaker.
func (g *Gate) Report(host string, failed bool) bool {
	if g == nil || g.cfg.BreakerThreshold <= 0 {
		return false
	}
	h := g.host(host)
	h.mu.Lock()
	tripped := false
	switch h.state {
	case breakerClosed:
		if failed {
			h.failures++
			if h.failures >= g.cfg.BreakerThreshold {
				h.state = breakerOpen
				h.openedAt = g.now()
				tripped = true
			}
		} else {
			h.failures = 0
		}
	case breakerHalfOpen:
		h.probing = false
		if failed {
			// The probe failed: back to open, restart the cooldown.
			h.state = breakerOpen
			h.openedAt = g.now()
			h.failures = g.cfg.BreakerThreshold
			tripped = true
		} else {
			h.state = breakerClosed
			h.failures = 0
		}
	case breakerOpen:
		// A straggler request admitted before the breaker opened is
		// still informative: success heals the host early.
		if !failed {
			h.state = breakerClosed
			h.failures = 0
		}
	}
	h.mu.Unlock()
	if tripped {
		g.mu.Lock()
		g.trips++
		g.mu.Unlock()
	}
	return tripped
}

// Abandon settles an admission without a verdict on transport health:
// it releases the half-open probe slot (when the host is mid-probe)
// and leaves failure streaks, breaker state and the cooldown clock
// untouched. Use it when an admitted request ends in ctx cancellation
// or a failure that is deterministic web content rather than weather —
// outcomes the breaker must not count, but whose claimed probe slot
// must not outlive the request.
func (g *Gate) Abandon(host string) {
	if g == nil || g.cfg.BreakerThreshold <= 0 {
		return
	}
	h := g.host(host)
	h.mu.Lock()
	if h.state == breakerHalfOpen {
		h.probing = false
	}
	h.mu.Unlock()
}

// Counters returns the running totals of breaker open transitions and
// fail-fast denials across all hosts.
func (g *Gate) Counters() (trips, denials int64) {
	if g == nil {
		return 0, 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.trips, g.denials
}
