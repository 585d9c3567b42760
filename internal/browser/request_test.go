package browser

import (
	"io"
	"net/http"
	"strings"
	"testing"

	"cookiewalk/internal/dom"
	"cookiewalk/internal/synthweb"
	"cookiewalk/internal/vantage"
)

// seen is what a transport observed of one request, copied while the
// call runs: on the body seam the session refills the same request for
// its next call.
type seen struct {
	method, url, ctype, body string
	contentLength            int64
	lengthHeader             bool
}

func observe(req *http.Request) seen {
	s := seen{
		method:        req.Method,
		url:           req.URL.String(),
		ctype:         req.Header.Get("Content-Type"),
		contentLength: req.ContentLength,
	}
	_, s.lengthHeader = req.Header["Content-Length"]
	if req.Body != nil {
		b, _ := io.ReadAll(req.Body) // the browser's form bodies are in-memory readers
		s.body = string(b)
		req.Body = io.NopCloser(strings.NewReader(s.body))
	}
	return s
}

// recordingSeam wraps the farm's body seam and records every request.
type recordingSeam struct {
	http.RoundTripper
	base bodyTransport
	log  []seen
}

func (r *recordingSeam) RoundTripBody(req *http.Request) (int, http.Header, string, uint64, error) {
	r.log = append(r.log, observe(req))
	return r.base.RoundTripBody(req)
}

// TestClickReloadCarriesNoFormState: on the body seam a consent POST
// and the GETs after it fill the same scratch request, and none of the
// GETs inherits the POST's body, length or content type.
func TestClickReloadCarriesNoFormState(t *testing.T) {
	s := findSite(t, func(s *synthweb.Site) bool {
		return s.Banner == synthweb.BannerRegular && !s.Decoy && s.Reachable &&
			len(s.ShowToVPs) == 0 && s.Embedding == synthweb.EmbedMainDOM
	})
	farm := testFarm.Transport()
	rec := &recordingSeam{RoundTripper: farm, base: farm.(bodyTransport)}
	b := newBrowser("Germany")
	b.Transport = rec
	page, err := b.Open("https://" + s.Domain + "/")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Click(page, page.Doc.Query(dom.MustCompileSelector("#cmp-reject"))); err != nil {
		t.Fatal(err)
	}

	post := -1
	for i, r := range rec.log {
		if r.method == http.MethodPost {
			post = i
		}
	}
	if post < 0 || post == len(rec.log)-1 {
		t.Fatalf("want a POST followed by GETs, got %+v", rec.log)
	}
	if p := rec.log[post]; p.body != "choice=reject" || p.contentLength != int64(len(p.body)) ||
		p.ctype != "application/x-www-form-urlencoded" {
		t.Fatalf("consent POST = %+v", p)
	}
	for _, r := range rec.log[post+1:] {
		if r.method != http.MethodGet || r.body != "" || r.contentLength != 0 || r.lengthHeader || r.ctype != "" {
			t.Fatalf("request after the POST carries form state: %+v", r)
		}
	}
}

// scriptedSeam is a body-seam transport that answers the first POST
// with a 503 and records every request.
type scriptedSeam struct {
	page   string
	log    []seen
	failed bool // the first POST got its 503
}

func (s *scriptedSeam) RoundTripBody(req *http.Request) (int, http.Header, string, uint64, error) {
	r := observe(req)
	s.log = append(s.log, r)
	if r.method == http.MethodPost && !s.failed {
		s.failed = true
		return http.StatusServiceUnavailable, http.Header{}, "busy", 0, nil
	}
	return http.StatusOK, http.Header{}, s.page, 0, nil
}

func (s *scriptedSeam) RoundTrip(req *http.Request) (*http.Response, error) {
	status, header, body, _, _ := s.RoundTripBody(req)
	return &http.Response{StatusCode: status, Header: header, Body: io.NopCloser(strings.NewReader(body)), Request: req}, nil
}

// plainOnly hides the body seam, so the browser takes RoundTrip.
type plainOnly struct{ rt http.RoundTripper }

func (p plainOnly) RoundTrip(req *http.Request) (*http.Response, error) { return p.rt.RoundTrip(req) }

// TestRetriedPostResendsFullForm: a consent POST whose first attempt
// gets a transient 503 is retried with the whole form body, on both
// transport seams.
func TestRetriedPostResendsFullForm(t *testing.T) {
	for _, seam := range []string{"body", "plain"} {
		t.Run(seam, func(t *testing.T) {
			st := &scriptedSeam{page: `<button id="b" data-action="consent-accept" data-target="/consent">ok</button>`}
			var rt http.RoundTripper = st
			if seam == "plain" {
				rt = plainOnly{st}
			}
			vp, _ := vantage.ByName("Germany")
			b := New(rt, vp)
			b.Resilience = Resilience{Retries: 2, Sleep: noSleep}
			page, err := b.Open("https://a.de/")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := b.Click(page, page.Doc.Query(dom.MustCompileSelector("#b"))); err != nil {
				t.Fatal(err)
			}
			var posts []seen
			for _, r := range st.log {
				if r.method == http.MethodPost {
					posts = append(posts, r)
				}
			}
			if len(posts) != 2 {
				t.Fatalf("POST attempts = %d, want 2 (503, then retry)", len(posts))
			}
			for i, p := range posts {
				if p.body != "choice=accept" || p.contentLength != int64(len(p.body)) {
					t.Fatalf("POST attempt %d = %+v, want the full form", i, p)
				}
			}
		})
	}
}

// keepingTransport keeps every request it is handed.
type keepingTransport struct {
	rt   http.RoundTripper
	kept []*http.Request
	urls []string
}

func (k *keepingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	k.kept = append(k.kept, req)
	k.urls = append(k.urls, req.Method+" "+req.URL.String()+" "+req.Header.Get("Cookie"))
	return k.rt.RoundTrip(req)
}

// TestPlainTransportGetsFreshRequests: a plain http.RoundTripper may
// keep the requests it is handed, so each call gets its own request
// and header map, left untouched by later calls.
func TestPlainTransportGetsFreshRequests(t *testing.T) {
	s := findSite(t, func(s *synthweb.Site) bool {
		return s.Banner == synthweb.BannerRegular && !s.Decoy && s.Reachable &&
			len(s.ShowToVPs) == 0 && s.Embedding == synthweb.EmbedMainDOM
	})
	kt := &keepingTransport{rt: plainOnly{testFarm.Transport()}}
	b := newBrowser("Germany")
	b.Transport = kt
	page, err := b.Open("https://" + s.Domain + "/")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Click(page, page.Doc.Query(dom.MustCompileSelector("#cmp-reject"))); err != nil {
		t.Fatal(err)
	}
	if len(kt.kept) < 3 {
		t.Fatalf("only %d requests", len(kt.kept))
	}
	reqs := map[*http.Request]bool{}
	headers := map[*string]bool{}
	for i, req := range kt.kept {
		if reqs[req] {
			t.Fatalf("request %d reuses an earlier request", i)
		}
		reqs[req] = true
		ua := &req.Header["User-Agent"][0]
		if headers[ua] {
			t.Fatalf("request %d reuses an earlier request's headers", i)
		}
		headers[ua] = true
		if got := req.Method + " " + req.URL.String() + " " + req.Header.Get("Cookie"); got != kt.urls[i] {
			t.Fatalf("request %d changed after its call: %q, was %q", i, got, kt.urls[i])
		}
	}
}
