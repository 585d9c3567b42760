package browser

import (
	"context"
	"errors"
	"fmt"
	"net/url"
	"time"

	"cookiewalk/internal/xrand"
)

// Resilience configures the browser's fault tolerance for flaky
// transports: bounded per-request retries with seeded decorrelated
// jitter backoff (the same discipline as the fleet client's), an
// optional per-host admission gate (rate limiter + circuit breaker),
// and a context that carries the per-visit deadline into every
// request. Every request takes the same path, armed or not. The zero
// value disables everything: each request is one attempt whose result
// or error returns verbatim, with the same request bytes as an armed
// policy's first attempt.
type Resilience struct {
	// Ctx, when non-nil, is attached to every outgoing request — the
	// per-visit deadline and cancellation reach the transport (real
	// network transports honor it; the fault injector's stalls do too).
	Ctx context.Context
	// Retries bounds retry attempts per request after a transient
	// failure (0 disables retrying).
	Retries int
	// Backoff is the initial retry delay, doubled per attempt and
	// capped at 2s (default 100ms). Each delay is jittered into
	// [base/2, base] from Seed — see xrand.JitterDuration.
	Backoff time.Duration
	// Seed drives the backoff jitter deterministically.
	Seed uint64
	// Gate, when non-nil, is consulted once per logical request for
	// breaker admission, once per attempt for politeness pacing, and
	// settled with exactly one Report or Abandon on every exit path.
	Gate HostGate
	// Meter, when non-nil, receives retry/breaker events for campaign
	// accounting.
	Meter Meter
	// Sleep overrides how retry delays are waited out (tests inject a
	// fake sleeper). nil means a real timer honoring Ctx.
	Sleep func(ctx context.Context, d time.Duration) error
}

// HostGate is the per-host admission controller the browser consults
// around each logical request. Matching is structural so this package
// needs no import of internal/hostgate. Admit checks the breaker once
// per request — it either admits (possibly claiming the host's single
// half-open probe slot) or fails fast with a circuit-open error; Wait
// blocks for a politeness token once per wire attempt (honoring ctx);
// and every admitted request is settled with exactly one terminal
// call: Report when its final post-retry outcome is a verdict on
// transport health (returning true when the report tripped a breaker
// open), Abandon when it is not — so a claimed probe slot can never
// outlive the request that holds it.
type HostGate interface {
	Admit(host string) error
	Wait(ctx context.Context, host string) error
	Report(host string, failed bool) bool
	Abandon(host string)
}

// Meter receives resilience events. Implementations must be safe for
// concurrent use (one Meter is shared across a campaign's workers).
type Meter interface {
	// VisitRetry counts one retried request attempt.
	VisitRetry()
	// BreakerTrip counts one breaker open transition.
	BreakerTrip()
	// BreakerDenial counts one request refused by an open breaker.
	BreakerDenial()
}

// IsTransient reports whether err is marked retryable by the
// transport — structurally, via an `interface{ Transient() bool }`
// anywhere in its wrap chain. The fault injector and real network
// transports mark timeouts, resets, torn bodies and stalls this way;
// definitive failures (webfarm's "no such host", bad URLs, HTTP
// status codes) are not marked and are never retried, which keeps a
// clean run's error strings byte-identical with resilience enabled.
func IsTransient(err error) bool {
	var t interface{ Transient() bool }
	return errors.As(err, &t) && t.Transient()
}

// exhaustedError reports a request that burned its whole retry
// budget on transient failures. It stays transient-marked (the
// underlying cause was) so composition degradation detection and
// callers' classification see through it, and its text is
// deterministic — a pure function of the attempt budget and the last
// transport error.
type exhaustedError struct {
	url      string
	attempts int
	err      error
}

func (e *exhaustedError) Error() string {
	return fmt.Sprintf("browser: %s: giving up after %d attempts: %v", e.url, e.attempts, e.err)
}
func (e *exhaustedError) Unwrap() error   { return e.err }
func (e *exhaustedError) Transient() bool { return true }

// statusError is the retry loop's representation of a 5xx response
// when a retry budget is set: retryable while budget remains, and an
// error on exhaustion, so an injected 503 body can never masquerade as
// page content in the analysis memo.
type statusError struct {
	url    string
	status int
}

func (e *statusError) Error() string {
	return fmt.Sprintf("browser: %s returned status %d", e.url, e.status)
}
func (e *statusError) Transient() bool { return true }

// isCircuitOpen matches hostgate's fail-fast structurally.
func isCircuitOpen(err error) bool {
	var c interface{ CircuitOpen() bool }
	return errors.As(err, &c) && c.CircuitOpen()
}

// attemptKey threads the retry-attempt ordinal through the request
// context to the fault injector, which keys its fault schedule on
// (URL, attempt) — a pure function of the seed, so injected faults
// are immune to goroutine interleaving.
type attemptKey struct{}

// WithAttempt returns a context carrying a request retry-attempt
// ordinal (0 = first try).
func WithAttempt(ctx context.Context, attempt int) context.Context {
	return context.WithValue(ctx, attemptKey{}, attempt)
}

// AttemptFromContext extracts the retry-attempt ordinal stamped by
// WithAttempt, or 0.
func AttemptFromContext(ctx context.Context) int {
	if v, ok := ctx.Value(attemptKey{}).(int); ok {
		return v
	}
	return 0
}

func (r *Resilience) ctx() context.Context {
	if r.Ctx != nil {
		return r.Ctx
	}
	return context.Background()
}

func (r *Resilience) sleep(d time.Duration) error {
	if r.Sleep != nil {
		return r.Sleep(r.ctx(), d)
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-r.ctx().Done():
		return context.Cause(r.ctx())
	}
}

// doRequest performs one logical request under the Resilience policy.
// It only does the gate's part: breaker admission once per request and
// exactly one terminal gate call (Report or Abandon) on every exit
// path. The attempts themselves, retried or not, run in
// attemptRequest.
func (b *Browser) doRequest(method string, u *url.URL, form url.Values, limit int) (response, error) {
	res := &b.Resilience
	if res.Gate == nil {
		return b.attemptRequest(method, u, form, limit)
	}
	host := u.Hostname()
	// Breaker admission is per logical request, not per attempt: the
	// breaker judges final outcomes, and a half-open probe slot belongs
	// to the whole request — an in-request retry re-checking the breaker
	// would collide with its own probe and deny the very request it was
	// admitted to perform. A fail-fast here is deliberately NOT reported
	// back — denials must not feed the failure streak.
	if err := res.Gate.Admit(host); err != nil {
		if isCircuitOpen(err) && res.Meter != nil {
			res.Meter.BreakerDenial()
		}
		return response{}, err
	}
	resp, err := b.attemptRequest(method, u, form, limit)
	// Settle the admission with exactly one terminal call. A final
	// success or a post-retry transient failure is the breaker's signal;
	// everything else — ctx cancellation (including a transient fault
	// overtaken by the visit deadline), errors that are deterministic web
	// content rather than transport weather — abandons the admission, so
	// a claimed probe slot is always released and the breaker can never
	// wedge past its cooldown.
	switch {
	case err == nil:
		res.Gate.Report(host, false)
	case IsTransient(err) && res.ctx().Err() == nil:
		if res.Gate.Report(host, true) && res.Meter != nil {
			res.Meter.BreakerTrip()
		}
	default:
		res.Gate.Abandon(host)
	}
	return resp, err
}

// attemptRequest runs the attempts of one admitted request: a
// politeness token per attempt, jittered backoff between attempts, and
// classification of each attempt's outcome. Without a retry budget it
// is a single attempt whose result or error returns verbatim — a 5xx
// is a page, a transient error is not rewrapped. It never talks to the
// breaker — doRequest settles the admission from its return value.
func (b *Browser) attemptRequest(method string, u *url.URL, form url.Values, limit int) (response, error) {
	res := &b.Resilience
	backoff := res.Backoff
	if backoff <= 0 {
		backoff = 100 * time.Millisecond
	}
	b.rtCalls++
	call := b.rtCalls
	var lastErr error
	for attempt := 0; ; attempt++ {
		if res.Gate != nil {
			if err := res.Gate.Wait(res.ctx(), u.Hostname()); err != nil {
				return response{}, err
			}
		}
		ctx := res.Ctx
		if attempt > 0 {
			ctx = WithAttempt(res.ctx(), attempt)
		}
		resp, err := b.roundTrip(b.request(method, u, form, ctx), limit)
		if res.Retries <= 0 {
			return resp, err
		}
		switch {
		case err == nil && resp.status < 500:
			// Success, including 4xx: deterministic web content.
			return resp, nil
		case err == nil:
			lastErr = &statusError{url: u.String(), status: resp.status}
		case IsTransient(err) && res.ctx().Err() == nil:
			lastErr = err
		default:
			// Definitive transport error ("no such host", a canceled
			// deadline): returned verbatim so clean-run error strings are
			// unchanged by resilience.
			return response{}, err
		}
		if attempt >= res.Retries {
			return response{}, &exhaustedError{url: u.String(), attempts: attempt + 1, err: lastErr}
		}
		if res.Meter != nil {
			res.Meter.VisitRetry()
		}
		if err := res.sleep(xrand.JitterDuration(res.Seed, call, attempt, backoff)); err != nil {
			return response{}, err
		}
		if backoff *= 2; backoff > 2*time.Second {
			backoff = 2 * time.Second
		}
	}
}
