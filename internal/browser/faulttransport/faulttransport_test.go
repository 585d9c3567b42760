package faulttransport

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cookiewalk/internal/browser"
)

// kaSeed and kaProfile drive the known-answer schedule: every kind at
// 100‰, so about half of all attempts fault and every kind shows up.
const kaSeed = 20231024

func kaProfile(maxPerRequest int) Profile {
	return Profile{
		Timeout: 100, Reset: 100, Err503: 100, Truncate: 100, Stall: 100,
		StallFor:      time.Millisecond,
		MaxPerRequest: maxPerRequest,
	}
}

var (
	kaMethods = []string{"GET", "POST"}
	kaURLs    = []string{
		"http://a.example/",
		"http://a.example/consent?x=1",
		"https://b.example/path",
		"http://c.example/script.js",
		"http://d.example/",
		"https://e.example/pay",
		"http://f.example/iframe.html",
		"http://news.example/article/7",
	}
	kaAttempts = 4
)

// kaWant is the fault kind ("-" = clean) of every (method, URL,
// attempt) triple under kaSeed and an uncapped kaProfile: one row per
// (method, URL) in kaMethods × kaURLs order, one column per attempt.
// Any change to how a decision is keyed or rolled shows up here.
var kaWant = strings.Fields(`
	-        truncate reset    -
	-        -        -        -
	truncate 503      reset    503
	-        503      reset    timeout
	-        truncate timeout  reset
	-        -        503      timeout
	truncate -        -        timeout
	-        -        -        -
	stall    -        -        -
	-        timeout  reset    -
	-        -        -        -
	-        -        reset    truncate
	503      -        reset    -
	timeout  truncate -        -
	-        timeout  timeout  reset
	-        -        timeout  -
`)

// fakeBase serves a 2 KiB body on both seams and counts its calls.
type fakeBase struct{ calls atomic.Int64 }

var fakeBody = strings.Repeat("x", 2048)

func (b *fakeBase) RoundTrip(req *http.Request) (*http.Response, error) {
	b.calls.Add(1)
	return &http.Response{
		StatusCode:    http.StatusOK,
		Header:        http.Header{},
		Body:          io.NopCloser(strings.NewReader(fakeBody)),
		ContentLength: int64(len(fakeBody)),
		Request:       req,
	}, nil
}

type fakeBodyBase struct{ fakeBase }

func (b *fakeBodyBase) RoundTripBody(*http.Request) (int, http.Header, string, uint64, error) {
	b.calls.Add(1)
	return http.StatusOK, http.Header{}, fakeBody, 0, nil
}

func kaRequest(t *testing.T, ctx context.Context, method, url string, attempt int) *http.Request {
	t.Helper()
	req, err := http.NewRequestWithContext(browser.WithAttempt(ctx, attempt), method, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	return req
}

// kindOf maps an injected error to its kind, checking the error text.
func kindOf(t *testing.T, err error, url string) string {
	t.Helper()
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("%s: non-injected error %v", url, err)
	}
	for _, k := range faultKinds {
		if err.Error() == fmt.Sprintf("faulttransport: injected %s: %s", k, url) {
			var tr interface{ Transient() bool }
			if !errors.As(err, &tr) || !tr.Transient() {
				t.Fatalf("%s: injected %s error is not transient", url, k)
			}
			var to interface{ Timeout() bool }
			if !errors.As(err, &to) || to.Timeout() != (k == FaultTimeout) {
				t.Fatalf("%s: injected %s error has the wrong Timeout()", url, k)
			}
			return k
		}
	}
	t.Fatalf("%s: unexpected error text %q", url, err)
	return ""
}

// plainKind sends one request through the plain seam and names the
// fault it met.
func plainKind(t *testing.T, rt http.RoundTripper, req *http.Request) string {
	t.Helper()
	url := req.URL.String()
	resp, err := rt.RoundTrip(req)
	if err != nil {
		return kindOf(t, err, url)
	}
	defer resp.Body.Close()
	body, rerr := io.ReadAll(resp.Body)
	switch {
	case resp.StatusCode == http.StatusServiceUnavailable:
		if string(body) != "injected 503: service unavailable\n" || rerr != nil {
			t.Fatalf("%s: 503 body %q, %v", url, body, rerr)
		}
		return Fault503
	case rerr != nil:
		if len(body) != 1024 || resp.ContentLength != -1 {
			t.Fatalf("%s: torn body gave %d bytes, ContentLength %d", url, len(body), resp.ContentLength)
		}
		return kindOf(t, rerr, url)
	case string(body) != fakeBody:
		t.Fatalf("%s: clean body %d bytes", url, len(body))
	}
	return "-"
}

// bodyKind sends one request through the RoundTripBody seam.
func bodyKind(t *testing.T, rt http.RoundTripper, req *http.Request) string {
	t.Helper()
	url := req.URL.String()
	status, _, body, _, err := rt.(bodyRoundTripper).RoundTripBody(req)
	switch {
	case err != nil:
		return kindOf(t, err, url)
	case status == http.StatusServiceUnavailable:
		if body != "injected 503: service unavailable\n" {
			t.Fatalf("%s: 503 body %q", url, body)
		}
		return Fault503
	case status != http.StatusOK || body != fakeBody:
		t.Fatalf("%s: clean response %d, %d bytes", url, status, len(body))
	}
	return "-"
}

type seam struct {
	name string
	base func() (http.RoundTripper, *atomic.Int64)
	kind func(*testing.T, http.RoundTripper, *http.Request) string
}

var seams = []seam{
	{"plain", func() (http.RoundTripper, *atomic.Int64) { b := &fakeBase{}; return b, &b.calls }, plainKind},
	{"body", func() (http.RoundTripper, *atomic.Int64) { b := &fakeBodyBase{}; return b, &b.calls }, bodyKind},
}

// runTable sends every known-answer triple through one injector and
// returns the kinds met, in kaWant order.
func runTable(t *testing.T, s seam, inj http.RoundTripper) []string {
	t.Helper()
	var got []string
	for _, m := range kaMethods {
		for _, u := range kaURLs {
			for a := 0; a < kaAttempts; a++ {
				got = append(got, s.kind(t, inj, kaRequest(t, context.Background(), m, u, a)))
			}
		}
	}
	return got
}

func triple(i int) string {
	a := i % kaAttempts
	u := kaURLs[(i/kaAttempts)%len(kaURLs)]
	m := kaMethods[i/(kaAttempts*len(kaURLs))]
	return fmt.Sprintf("%s %s attempt %d", m, u, a)
}

// TestKnownAnswerSchedule pins the fault kind of every known-answer
// triple on both seams, the per-kind totals, the log lines and which
// faults still reach the base transport.
func TestKnownAnswerSchedule(t *testing.T) {
	if len(kaWant) != len(kaMethods)*len(kaURLs)*kaAttempts {
		t.Fatalf("kaWant has %d entries", len(kaWant))
	}
	want := Counters{Timeouts: 9, Resets: 8, Err503s: 5, Truncates: 6, Stalls: 1}
	for _, s := range seams {
		t.Run(s.name, func(t *testing.T) {
			base, calls := s.base()
			rt, ft := Wrap(base, kaSeed, kaProfile(-1))
			if _, fast := rt.(bodyRoundTripper); fast != (s.name == "body") {
				t.Fatalf("Wrap kept the fast path: %v", fast)
			}
			var logged []string
			ft.Logf = func(format string, args ...any) { logged = append(logged, fmt.Sprintf(format, args...)) }
			got := runTable(t, s, rt)
			var wantCalls int64
			for i, k := range got {
				if k != kaWant[i] {
					t.Errorf("%s: got %s, want %s", triple(i), k, kaWant[i])
				}
				if k == "-" || (k == FaultTruncate && s.name == "plain") {
					wantCalls++
				}
			}
			if inj := ft.Injected(); inj != want || inj.Total() != uint64(len(logged)) {
				t.Errorf("Injected() = %+v (total %d), want %+v; %d log lines", inj, inj.Total(), want, len(logged))
			}
			if len(logged) > 0 && logged[0] != "faulttransport: "+firstFault() {
				t.Errorf("first log line %q, want %q", logged[0], "faulttransport: "+firstFault())
			}
			if calls.Load() != wantCalls {
				t.Errorf("base saw %d calls, want %d", calls.Load(), wantCalls)
			}
		})
	}
}

// firstFault renders the first faulted triple as "kind METHOD URL".
func firstFault() string {
	for i, k := range kaWant {
		if k != "-" {
			return fmt.Sprintf("%s %s %s", k, kaMethods[i/(kaAttempts*len(kaURLs))], kaURLs[(i/kaAttempts)%len(kaURLs)])
		}
	}
	return ""
}

// TestMaxPerRequestCap pins the attempt cap: attempts at or past it
// are clean, earlier ones keep their uncapped decision, and 0 means 2.
func TestMaxPerRequestCap(t *testing.T) {
	for _, max := range []int{0, 1, 3} {
		limit := max
		if limit == 0 {
			limit = 2
		}
		for _, s := range seams {
			t.Run(fmt.Sprintf("%s/max=%d", s.name, max), func(t *testing.T) {
				base, _ := s.base()
				rt, _ := Wrap(base, kaSeed, kaProfile(max))
				for i, k := range runTable(t, s, rt) {
					want := kaWant[i]
					if i%kaAttempts >= limit {
						want = "-"
					}
					if k != want {
						t.Errorf("%s: got %s, want %s", triple(i), k, want)
					}
				}
			})
		}
	}
}

// TestHostsFilter pins the pass-through: requests to hosts the filter
// rejects reach the base untouched and count nothing.
func TestHostsFilter(t *testing.T) {
	for _, s := range seams {
		t.Run(s.name, func(t *testing.T) {
			base, _ := s.base()
			rt, ft := Wrap(base, kaSeed, kaProfile(-1))
			ft.Hosts = func(host string) bool { return host == "a.example" }
			var faults uint64
			for i, k := range runTable(t, s, rt) {
				want := kaWant[i]
				if !strings.HasPrefix(kaURLs[(i/kaAttempts)%len(kaURLs)], "http://a.example/") {
					want = "-"
				}
				if k != want {
					t.Errorf("%s: got %s, want %s", triple(i), k, want)
				}
				if want != "-" {
					faults++
				}
			}
			if got := ft.Injected().Total(); got != faults || faults == 0 {
				t.Errorf("Injected().Total() = %d, want %d (> 0)", got, faults)
			}
		})
	}
}

// TestStallHonorsContext pins that a stall gives up with the context's
// cause instead of the injected error once the request is canceled.
func TestStallHonorsContext(t *testing.T) {
	i := 0
	for i < len(kaWant) && kaWant[i] != FaultStall {
		i++
	}
	if i == len(kaWant) {
		t.Fatal("no stall in the known-answer table")
	}
	cause := errors.New("visit abandoned")
	for _, s := range seams {
		t.Run(s.name, func(t *testing.T) {
			base, _ := s.base()
			p := kaProfile(-1)
			p.StallFor = time.Hour
			rt, ft := Wrap(base, kaSeed, p)
			ctx, cancel := context.WithCancelCause(context.Background())
			cancel(cause)
			req := kaRequest(t, ctx, kaMethods[i/(kaAttempts*len(kaURLs))], kaURLs[(i/kaAttempts)%len(kaURLs)], i%kaAttempts)
			var err error
			if s.name == "body" {
				_, _, _, _, err = rt.(bodyRoundTripper).RoundTripBody(req)
			} else {
				_, err = rt.RoundTrip(req)
			}
			if !errors.Is(err, cause) || errors.Is(err, ErrInjected) {
				t.Fatalf("canceled stall returned %v, want the context cause", err)
			}
			if ft.Injected().Stalls != 1 {
				t.Fatalf("Injected().Stalls = %d, want 1", ft.Injected().Stalls)
			}
		})
	}
}
