package browser

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"cookiewalk/internal/dom"
	"cookiewalk/internal/vantage"
)

// scriptedTransport serves canned responses per URL — the failure
// injection rig: malformed HTML, redirect loops, server errors, huge
// bodies, missing Location headers.
type scriptedTransport struct {
	responses map[string]scripted
	hits      map[string]int
}

type scripted struct {
	status   int
	body     string
	location string
	err      error
}

func (s *scriptedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	url := req.URL.String()
	s.hits[url]++
	sc, ok := s.responses[url]
	if !ok {
		return nil, fmt.Errorf("scripted: no response for %s", url)
	}
	if sc.err != nil {
		return nil, sc.err
	}
	resp := &http.Response{
		StatusCode: sc.status,
		Header:     http.Header{},
		Body:       io.NopCloser(strings.NewReader(sc.body)),
		Request:    req,
	}
	if sc.location != "" {
		resp.Header.Set("Location", sc.location)
	}
	return resp, nil
}

func scriptedBrowser(responses map[string]scripted) (*Browser, *scriptedTransport) {
	st := &scriptedTransport{responses: responses, hits: map[string]int{}}
	vp, _ := vantage.ByName("Germany")
	return New(st, vp), st
}

func TestMalformedHTMLStillParses(t *testing.T) {
	b, _ := scriptedBrowser(map[string]scripted{
		"https://broken.de/": {status: 200,
			body: `<div><p>unclosed <b>mess <table><tr><td>cell &bogus; <script>if(a<b)`},
	})
	page, err := b.Open("https://broken.de/")
	if err != nil {
		t.Fatal(err)
	}
	if page.Doc == nil || page.Doc.Body() == nil {
		t.Fatal("no best-effort tree")
	}
}

func TestRedirectLoopBounded(t *testing.T) {
	b, st := scriptedBrowser(map[string]scripted{
		"https://a.de/": {status: 302, location: "https://b.de/"},
		"https://b.de/": {status: 302, location: "https://a.de/"},
	})
	page, err := b.Open("https://a.de/")
	// The loop must terminate via MaxRedirects; the final response is a
	// redirect status, not an infinite recursion.
	if err != nil {
		t.Fatalf("bounded loop returned error: %v", err)
	}
	if page.Status != 302 {
		t.Fatalf("status = %d", page.Status)
	}
	total := st.hits["https://a.de/"] + st.hits["https://b.de/"]
	if total > b.MaxRedirects+2 {
		t.Fatalf("made %d requests", total)
	}
}

func TestRedirectWithoutLocation(t *testing.T) {
	b, _ := scriptedBrowser(map[string]scripted{
		"https://a.de/": {status: 303},
	})
	if _, err := b.Open("https://a.de/"); err == nil {
		t.Fatal("missing Location must error")
	}
}

func TestRelativeRedirectResolved(t *testing.T) {
	b, _ := scriptedBrowser(map[string]scripted{
		"https://a.de/":     {status: 303, location: "/home"},
		"https://a.de/home": {status: 200, body: "<p>home</p>"},
	})
	page, err := b.Open("https://a.de/")
	if err != nil {
		t.Fatal(err)
	}
	if page.URL.Path != "/home" || page.Status != 200 {
		t.Fatalf("final = %s (%d)", page.URL, page.Status)
	}
}

func TestServerErrorSurfacesStatus(t *testing.T) {
	b, _ := scriptedBrowser(map[string]scripted{
		"https://a.de/": {status: 500, body: "boom"},
	})
	page, err := b.Open("https://a.de/")
	if err != nil {
		t.Fatal(err)
	}
	if page.Status != 500 {
		t.Fatalf("status = %d", page.Status)
	}
}

func TestHugeBodyTruncated(t *testing.T) {
	b, _ := scriptedBrowser(map[string]scripted{
		"https://a.de/": {status: 200,
			body: "<p>" + strings.Repeat("x", 8<<20) + "</p>"},
	})
	page, err := b.Open("https://a.de/")
	if err != nil {
		t.Fatal(err)
	}
	// The 4 MiB read limit must have applied (body not fully resident).
	if len(page.Doc.Body().Text()) > 5<<20 {
		t.Fatal("body not truncated")
	}
}

func TestFailedSubresourceDoesNotFailPage(t *testing.T) {
	b, st := scriptedBrowser(map[string]scripted{
		"https://a.de/": {status: 200,
			body: `<img src="https://gone.example/x.gif"><p>content</p>`},
		"https://gone.example/x.gif": {err: fmt.Errorf("connection refused")},
	})
	page, err := b.Open("https://a.de/")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(page.Doc.Body().Text(), "content") {
		t.Fatal("page lost")
	}
	if st.hits["https://gone.example/x.gif"] != 1 {
		t.Fatal("subresource not attempted")
	}
}

func TestBrokenFrameSkipped(t *testing.T) {
	b, _ := scriptedBrowser(map[string]scripted{
		"https://a.de/": {status: 200,
			body: `<iframe src="https://dead.example/frame"></iframe><p>main</p>`},
		"https://dead.example/frame": {status: 404, body: "not found"},
	})
	page, err := b.Open("https://a.de/")
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Doc.FrameDocs()) != 0 {
		t.Fatal("404 frame must not attach a document")
	}
}

func TestFrameRecursionBounded(t *testing.T) {
	// A frame that embeds itself: recursion must stop at MaxFrameDepth.
	b, st := scriptedBrowser(map[string]scripted{
		"https://a.de/": {status: 200,
			body: `<iframe src="https://a.de/f"></iframe>`},
		"https://a.de/f": {status: 200,
			body: `<iframe src="https://a.de/f"></iframe>`},
	})
	if _, err := b.Open("https://a.de/"); err != nil {
		t.Fatal(err)
	}
	if st.hits["https://a.de/f"] > b.MaxFrameDepth+1 {
		t.Fatalf("frame fetched %d times", st.hits["https://a.de/f"])
	}
}

func TestInjectTargetMissing(t *testing.T) {
	// A loader script whose inject target does not exist: the fragment
	// fetch is skipped entirely (no target, no work).
	b, st := scriptedBrowser(map[string]scripted{
		"https://a.de/": {status: 200,
			body: `<script src="https://cdn.example/cw.js" data-cw-inject="#nope"></script>`},
		"https://cdn.example/cw.js": {status: 200, body: `<div id="w">wall</div>`},
	})
	page, err := b.Open("https://a.de/")
	if err != nil {
		t.Fatal(err)
	}
	if page.Doc.Query(dom.MustCompileSelector("#w")) != nil {
		t.Fatal("fragment injected without a target")
	}
	if st.hits["https://cdn.example/cw.js"] != 0 {
		t.Fatal("loader fetched despite missing target")
	}
}

func TestDataURLsSkipped(t *testing.T) {
	b, _ := scriptedBrowser(map[string]scripted{
		"https://a.de/": {status: 200,
			body: `<img src="data:image/gif;base64,R0lGOD"><p>ok</p>`},
	})
	page, err := b.Open("https://a.de/")
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Fetched) != 0 {
		t.Fatalf("fetched = %v", page.Fetched)
	}
}

func TestBadURLErrors(t *testing.T) {
	b, _ := scriptedBrowser(nil)
	if _, err := b.Open("https://bad url with spaces/"); err == nil {
		t.Fatal("bad URL must error")
	}
}
