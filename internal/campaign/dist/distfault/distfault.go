// Package distfault injects the failures production fleets actually
// see — dropped responses, torn reads, 5xx bursts, torn journal
// uploads, stalled heartbeats, duplicated requests — into the dist
// protocol, deterministically from a seed. It wraps both ends:
// Transport sits in a worker's HTTP client, Handler in front of the
// coordinator. Every injection decision is a pure function of
// (seed, request counter), so a failing chaos run replays exactly from
// its seed.
//
// The harness is deliberately adversarial but physical: it only does
// to requests what networks and crashes do — truncate, delay, drop,
// repeat, refuse — never forging protocol messages. The invariants it
// probes are the fleet's real ones: a torn PUT must surface as a
// validation reject and be re-shipped fresh; a dropped lease response
// must expire into a re-lease; a duplicated upload must hit the lease
// fence, never a double merge.
package distfault

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cookiewalk/internal/xrand"
)

// Fault kinds, in threshold order.
const (
	faultNone      = "none"
	faultTornPut   = "torn-put"   // journal PUT body truncated in flight
	faultStallHB   = "stall-hb"   // heartbeat never delivered
	faultDrop      = "drop"       // server handled it, response lost
	faultShortRead = "short-read" // response body torn mid-read
	fault503       = "503"        // synthesized 503, server never reached
	faultDup       = "dup"        // request delivered twice
)

// Profile sets per-mille injection rates (out of 1000 requests), at
// most one fault per request. A rate whose fault does not apply to a
// given request (TornPut outside journal PUTs, StallHB outside
// heartbeats) passes the request through clean — the roll is still
// consumed, keeping the decision sequence deterministic regardless of
// request mix.
type Profile struct {
	TornPut   int // PUT /v1/journal only
	StallHB   int // POST /v1/heartbeat only
	Drop      int
	ShortRead int
	Err503    int
	Dup       int
}

// DefaultProfile is a noisy-but-survivable mix: roughly one request in
// four suffers a fault.
func DefaultProfile() Profile {
	return Profile{TornPut: 60, StallHB: 50, Drop: 40, ShortRead: 40, Err503: 40, Dup: 30}
}

// Transport is a fault-injecting http.RoundTripper for worker clients.
// Safe for concurrent use.
type Transport struct {
	// Base performs the real requests (default http.DefaultTransport).
	Base http.RoundTripper
	// Seed drives every injection decision.
	Seed uint64
	// Profile sets the fault mix (zero value injects nothing; use
	// DefaultProfile for the standard chaos mix).
	Profile Profile
	// Logf, when non-nil, receives one line per injected fault.
	Logf func(format string, args ...any)

	n        atomic.Uint64
	injected atomic.Uint64
}

// Injected reports how many faults this transport has injected.
func (t *Transport) Injected() uint64 { return t.injected.Load() }

func (t *Transport) base() http.RoundTripper {
	if t.Base != nil {
		return t.Base
	}
	return http.DefaultTransport
}

// faultKinds lists the fault kinds in Profile order.
var faultKinds = [...]string{faultTornPut, faultStallHB, faultDrop, faultShortRead, fault503, faultDup}

// pick maps one hash roll to a fault kind via cumulative per-mille
// thresholds; a rate <= 0 never fires.
func (p Profile) pick(roll uint64) string {
	if i := xrand.PerMille(roll, p.TornPut, p.StallHB, p.Drop, p.ShortRead, p.Err503, p.Dup); i >= 0 {
		return faultKinds[i]
	}
	return faultNone
}

// errInjected marks transport-level injected failures; they look like
// any network error to the client (and are classified transient).
var errInjected = errors.New("distfault: injected network failure")

// RoundTrip buffers the request body, rolls one fault decision from
// (Seed, request number) and applies it. Fault kinds that do not fit
// the request pass it through untouched.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	var body []byte
	if req.Body != nil {
		var err error
		body, err = io.ReadAll(req.Body)
		req.Body.Close()
		if err != nil {
			return nil, err
		}
	}
	send := func(b []byte) (*http.Response, error) {
		r := req.Clone(req.Context())
		r.Body = io.NopCloser(bytes.NewReader(b))
		r.ContentLength = int64(len(b))
		return t.base().RoundTrip(r)
	}

	n := t.n.Add(1)
	h := xrand.Mix64(t.Seed, n)
	fault := t.Profile.pick(h % 1000)
	isJournalPut := req.Method == http.MethodPut && strings.HasPrefix(req.URL.Path, "/v1/journal")
	isHeartbeat := strings.HasSuffix(req.URL.Path, "/v1/heartbeat")

	switch {
	case fault == faultTornPut && isJournalPut && len(body) > 0:
		cut := int(xrand.Mix64(h, 1) % uint64(len(body)))
		t.inject(fault, req, "cut %d of %d bytes", cut, len(body))
		return send(body[:cut])

	case fault == faultStallHB && isHeartbeat:
		t.inject(fault, req, "heartbeat swallowed")
		// A stalled heartbeat is one that never lands: burn a little
		// real time (so TTLs can lapse) and fail without sending.
		time.Sleep(2 * time.Millisecond)
		return nil, fmt.Errorf("%s %s: %w (stalled heartbeat)", req.Method, req.URL.Path, errInjected)

	case fault == faultDrop:
		t.inject(fault, req, "response dropped after delivery")
		resp, err := send(body)
		if err == nil {
			// The server fully handled the request; the worker never
			// hears about it.
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		return nil, fmt.Errorf("%s %s: %w (response dropped)", req.Method, req.URL.Path, errInjected)

	case fault == faultShortRead:
		resp, err := send(body)
		if err != nil {
			return resp, err
		}
		t.inject(fault, req, "response body torn")
		resp.Body = &tornBody{rc: resp.Body, remaining: 3}
		return resp, nil

	case fault == fault503:
		t.inject(fault, req, "synthesized 503")
		return &http.Response{
			Status: "503 Service Unavailable", StatusCode: http.StatusServiceUnavailable,
			Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
			Body: io.NopCloser(strings.NewReader("distfault: injected 503")), Request: req,
		}, nil

	case fault == faultDup:
		t.inject(fault, req, "request duplicated")
		if first, err := send(body); err == nil {
			io.Copy(io.Discard, first.Body)
			first.Body.Close()
		}
		return send(body)
	}
	return send(body)
}

func (t *Transport) inject(kind string, req *http.Request, format string, args ...any) {
	t.injected.Add(1)
	if t.Logf != nil {
		t.Logf("distfault: %s %s %s: %s", kind, req.Method, req.URL.Path, fmt.Sprintf(format, args...))
	}
}

// tornBody yields a few bytes then fails mid-read, like a connection
// cut while the response was streaming.
type tornBody struct {
	rc        io.ReadCloser
	remaining int
}

func (b *tornBody) Read(p []byte) (int, error) {
	if b.remaining <= 0 {
		return 0, fmt.Errorf("%w (torn response body)", errInjected)
	}
	if len(p) > b.remaining {
		p = p[:b.remaining]
	}
	n, err := b.rc.Read(p)
	b.remaining -= n
	if err != nil {
		return n, err
	}
	return n, nil
}

func (b *tornBody) Close() error { return b.rc.Close() }

// Handler wraps the coordinator's handler with seeded 5xx bursts: with
// per-mille probability Burst a request opens a burst of 1–3
// consecutive 503s (the burst length is also seed-derived), modeling a
// coordinator briefly overwhelmed or mid-restart behind a proxy.
type Handler struct {
	Inner http.Handler
	Seed  uint64
	// Burst is the per-mille chance a request starts a 503 burst
	// (0 disables injection).
	Burst int
	// Logf, when non-nil, receives one line per injected burst.
	Logf func(format string, args ...any)

	mu        sync.Mutex
	n         uint64
	burstLeft int
	injected  uint64
}

// Injected reports how many requests this handler has refused with an
// injected 503.
func (h *Handler) Injected() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.injected
}

func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.mu.Lock()
	h.n++
	inject := false
	if h.burstLeft > 0 {
		h.burstLeft--
		inject = true
	} else if h.Burst > 0 {
		roll := xrand.Mix64(h.Seed+1, h.n)
		if roll%1000 < uint64(h.Burst) {
			h.burstLeft = int(roll>>32%3) + 1
			if h.Logf != nil {
				h.Logf("distfault: 503 burst of %d starting at request %d", h.burstLeft+1, h.n)
			}
			inject = true
		}
	}
	if inject {
		h.injected++
	}
	h.mu.Unlock()
	if inject {
		http.Error(w, "distfault: injected 503 burst", http.StatusServiceUnavailable)
		return
	}
	h.Inner.ServeHTTP(w, r)
}
