// Package faulttransport is a deterministic fault injector for the
// browser's transport seam — the visit-path sibling of the fleet's
// distfault. It wraps BOTH seams the browser dispatches on: the
// zero-copy RoundTripBody fast path (the in-process webfarm) and the
// plain http.RoundTripper compatibility path — and injects timeouts,
// connection resets, 5xx responses, truncated bodies and stalls from
// a seeded per-mille Profile.
//
// Determinism contract. Every injection decision is a pure function
// of (Seed, request URL, retry attempt): the browser threads each
// request's attempt ordinal through the request context
// (browser.WithAttempt), and the injector rolls
// Mix64(Mix64(Seed, Hash64(method+url)), attempt) — no mutable state,
// so the fault schedule is immune to goroutine interleaving, worker
// counts and shard geometry. Attempts at or past Profile.MaxPerRequest
// are always clean, so a retry budget of at least MaxPerRequest
// guarantees every request eventually succeeds — which is what makes
// a chaos run's report byte-identical to the clean golden.
package faulttransport

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"cookiewalk/internal/browser"
	"cookiewalk/internal/xrand"
)

// Fault kinds, in Profile order.
const (
	FaultTimeout  = "timeout"
	FaultReset    = "reset"
	Fault503      = "503"
	FaultTruncate = "truncate"
	FaultStall    = "stall"
)

// ErrInjected is the sentinel wrapped by every injected failure, so
// tests can tell injected faults from real transport errors with
// errors.Is.
var ErrInjected = errors.New("faulttransport: injected fault")

// Profile sets per-mille probabilities for each fault kind (out of
// requests that are eligible at all). The zero Profile injects
// nothing.
type Profile struct {
	// Timeout‰ of requests fail with a transient timeout error.
	Timeout int
	// Reset‰ fail with a transient connection-reset error.
	Reset int
	// Err503‰ return a synthesized 503 response.
	Err503 int
	// Truncate‰ tear the response body mid-read (plain path) or fail
	// the body transfer outright (fast path) with a transient error.
	Truncate int
	// Stall‰ hang for StallFor (honoring the request context) and then
	// fail transiently — the slow-then-dead connection.
	Stall int
	// StallFor is how long a stall hangs (default 10ms; tests shrink it).
	StallFor time.Duration
	// MaxPerRequest caps how many leading retry attempts of one request
	// may be faulted: attempts >= MaxPerRequest are always clean.
	// 0 means the default of 2; negative means NO cap — every attempt
	// of an eligible request faults, which is how tests build hosts
	// that are down for good.
	MaxPerRequest int
}

// faultKinds lists the fault kinds in Profile order.
var faultKinds = [...]string{FaultTimeout, FaultReset, Fault503, FaultTruncate, FaultStall}

func (p Profile) maxPerRequest() int {
	switch {
	case p.MaxPerRequest > 0:
		return p.MaxPerRequest
	case p.MaxPerRequest < 0:
		return int(^uint(0) >> 1) // no cap
	}
	return 2
}

func (p Profile) stallFor() time.Duration {
	if p.StallFor > 0 {
		return p.StallFor
	}
	return 10 * time.Millisecond
}

// Counters are running totals of injected faults by kind.
type Counters struct {
	Timeouts, Resets, Err503s, Truncates, Stalls uint64
}

// Total sums all kinds.
func (c Counters) Total() uint64 {
	return c.Timeouts + c.Resets + c.Err503s + c.Truncates + c.Stalls
}

// Transport injects faults in front of a plain http.RoundTripper.
// Use Wrap to construct one — it picks the seam matching the base.
type Transport struct {
	// Base is the real transport.
	Base http.RoundTripper
	// Seed drives the fault schedule deterministically.
	Seed uint64
	// Profile sets the fault mix.
	Profile Profile
	// Hosts, when non-nil, restricts injection to hosts it returns
	// true for — composable: wrap an always-fail injector scoped to
	// one victim host around a background-noise injector for the rest.
	Hosts func(host string) bool
	// Logf, when non-nil, receives one line per injected fault.
	Logf func(format string, args ...any)

	injected [len(faultKinds)]atomic.Uint64 // indexed like faultKinds
}

// Injected returns the fault totals so far.
func (t *Transport) Injected() Counters {
	return Counters{
		Timeouts:  t.injected[0].Load(),
		Resets:    t.injected[1].Load(),
		Err503s:   t.injected[2].Load(),
		Truncates: t.injected[3].Load(),
		Stalls:    t.injected[4].Load(),
	}
}

// faultError is every injected failure: transient (the browser's
// retry loop classifies it structurally), wrapping ErrInjected, with
// deterministic text — no attempt numbers, so an exhausted-retry
// error journaled by a campaign has stable bytes.
type faultError struct {
	kind string
	url  string
}

func (e *faultError) Error() string {
	return fmt.Sprintf("faulttransport: injected %s: %s", e.kind, e.url)
}
func (e *faultError) Unwrap() error   { return ErrInjected }
func (e *faultError) Transient() bool { return true }
func (e *faultError) Timeout() bool   { return e.kind == FaultTimeout }

// inject is the one fault decision both seams make. It returns the
// fault kind for this (request, attempt) — "" for a clean request —
// and the error the request fails with. A fault is counted and logged
// here; a stall first hangs for the profile's stall duration and
// fails with the context's cause if the request is canceled first.
// Each seam decides itself how a 503 or a truncation reaches its
// caller.
func (t *Transport) inject(req *http.Request) (string, error) {
	if t.Hosts != nil && !t.Hosts(req.URL.Hostname()) {
		return "", nil
	}
	attempt := browser.AttemptFromContext(req.Context())
	if attempt >= t.Profile.maxPerRequest() {
		return "", nil
	}
	key := xrand.Hash64(req.Method + " " + req.URL.String())
	roll := xrand.Mix64(xrand.Mix64(t.Seed, key), uint64(attempt)) % 1000
	p := t.Profile
	i := xrand.PerMille(roll, p.Timeout, p.Reset, p.Err503, p.Truncate, p.Stall)
	if i < 0 {
		return "", nil
	}
	kind := faultKinds[i]
	t.injected[i].Add(1)
	if t.Logf != nil {
		t.Logf("faulttransport: %s %s %s", kind, req.Method, req.URL)
	}
	if kind == FaultStall {
		timer := time.NewTimer(p.stallFor())
		defer timer.Stop()
		select {
		case <-timer.C:
		case <-req.Context().Done():
			return kind, context.Cause(req.Context())
		}
	}
	return kind, &faultError{kind: kind, url: req.URL.String()}
}

// RoundTrip implements http.RoundTripper (the compatibility seam).
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	kind, err := t.inject(req)
	switch kind {
	case "":
		return t.Base.RoundTrip(req)
	case Fault503:
		body := "injected 503: service unavailable\n"
		return &http.Response{
			Status:        "503 Service Unavailable",
			StatusCode:    http.StatusServiceUnavailable,
			Proto:         "HTTP/1.1",
			ProtoMajor:    1,
			ProtoMinor:    1,
			Header:        http.Header{},
			Body:          io.NopCloser(strings.NewReader(body)),
			ContentLength: int64(len(body)),
			Request:       req,
		}, nil
	case FaultTruncate:
		resp, berr := t.Base.RoundTrip(req)
		if berr != nil {
			return nil, berr
		}
		// Deliver a real prefix, then tear the connection: readers see
		// partial bytes followed by a transient error, never a clean EOF
		// — exercising exactly the poisoning path the browser must
		// refuse to fingerprint.
		resp.Body = &tornBody{rc: resp.Body, remaining: 1024, err: err}
		resp.ContentLength = -1
		return resp, nil
	}
	return nil, err
}

// tornBody yields up to remaining bytes of the underlying body and
// then fails with the injected error instead of EOF.
type tornBody struct {
	rc        io.ReadCloser
	remaining int
	err       error
}

func (b *tornBody) Read(p []byte) (int, error) {
	if b.remaining <= 0 {
		return 0, b.err
	}
	if len(p) > b.remaining {
		p = p[:b.remaining]
	}
	n, err := b.rc.Read(p)
	b.remaining -= n
	if err == io.EOF {
		// The body was shorter than the tear point: the fault still
		// fires so the outcome does not depend on body size.
		return n, b.err
	}
	return n, err
}

func (b *tornBody) Close() error { return b.rc.Close() }

// bodyRoundTripper mirrors the browser's structural fast-path probe.
type bodyRoundTripper interface {
	RoundTripBody(req *http.Request) (status int, header http.Header, body string, fp uint64, err error)
}

// BodyTransport is a Transport whose base implements the zero-copy
// RoundTripBody seam; it injects the same faults there so the browser
// keeps its fast path under chaos.
type BodyTransport struct {
	*Transport
	base bodyRoundTripper
}

// RoundTripBody implements the fast-path seam.
func (t *BodyTransport) RoundTripBody(req *http.Request) (status int, header http.Header, body string, fp uint64, err error) {
	kind, err := t.inject(req)
	switch kind {
	case "":
		return t.base.RoundTripBody(req)
	case Fault503:
		return http.StatusServiceUnavailable, http.Header{}, "injected 503: service unavailable\n", 0, nil
	}
	// The fast path hands bodies over whole, so a torn transfer fails
	// like the other faults, with no bytes: there is no partial string
	// to leak into fingerprinting.
	return 0, nil, "", 0, err
}

// Wrap puts a fault injector in front of base, picking the seam that
// matches: a base with the RoundTripBody fast path gets a wrapper
// that preserves it. The returned *Transport carries the counters
// (and is the same object the RoundTripper wraps).
func Wrap(base http.RoundTripper, seed uint64, profile Profile) (http.RoundTripper, *Transport) {
	t := &Transport{Base: base, Seed: seed, Profile: profile}
	if bt, ok := base.(bodyRoundTripper); ok {
		return &BodyTransport{Transport: t, base: bt}, t
	}
	return t, t
}
