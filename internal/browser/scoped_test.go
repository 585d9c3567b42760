package browser

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"cookiewalk/internal/dom"
	"cookiewalk/internal/synthweb"
)

// snapshot serializes a page with its shadow roots, loaded frame
// documents and text, so any write into its nodes shows up.
func snapshot(p *Page) string {
	var b strings.Builder
	dumpTree(&b, p.Doc)
	for _, fd := range p.Doc.FrameDocs() {
		b.WriteString("\n--frame--\n")
		dumpTree(&b, fd)
	}
	b.WriteString("\n--text--\n")
	b.WriteString(p.Doc.DeepText())
	return b.String()
}

// dumpTree writes every field of n's subtree that parsing sets,
// shadow roots included.
func dumpTree(b *strings.Builder, n *dom.Node) {
	fmt.Fprintf(b, "(%d %s %q %q", n.Type, n.Tag, n.Data, n.Attrs)
	if n.Shadow != nil {
		fmt.Fprintf(b, " shadow=%s", n.Shadow.Mode)
		dumpTree(b, n.Shadow.Root)
	}
	for c := n.FirstChild; c != nil; c = c.NextSibling {
		dumpTree(b, c)
	}
	b.WriteByte(')')
}

// TestPagesOutliveScopedComposes pins the scoped-page lifetime rule:
// pages from Open and Compose own their trees for as long as the
// caller holds them, however many scoped and unscoped compositions the
// same session runs afterwards, while a scoped page and its tree are
// zeroed the moment its callback returns.
func TestPagesOutliveScopedComposes(t *testing.T) {
	var sites []*synthweb.Site // frames, shadow roots and injected fragments
	for _, emb := range []synthweb.Embedding{synthweb.EmbedIFrame, synthweb.EmbedShadowOpen, synthweb.EmbedMainDOM} {
		sites = append(sites, findSite(t, func(s *synthweb.Site) bool {
			return s.Banner == synthweb.BannerCookiewall && s.Embedding == emb
		}))
	}
	b := newBrowser("Germany")
	fetch := func(s *synthweb.Site) FetchResult {
		t.Helper()
		fr, err := b.FetchTop("https://" + s.Domain + "/")
		if err != nil {
			t.Fatal(err)
		}
		return fr
	}

	opened, err := b.Open("https://" + sites[0].Domain + "/")
	if err != nil {
		t.Fatal(err)
	}
	held := []*Page{opened, b.Compose(fetch(sites[1]))}
	want := []string{snapshot(held[0]), snapshot(held[1])}
	var lastPage *Page
	var lastDoc *dom.Node
	// Enough scoped compositions to cycle every retained chunk many
	// times over; the first few also compose unscoped pages inside the
	// callback.
	for i := 0; i < 200; i++ {
		s := sites[i%len(sites)]
		b.ComposeScoped(fetch(s), func(p *Page) {
			if len(p.Text(p.Doc.Body())) == 0 {
				t.Fatal("scoped page has no text")
			}
			if i < len(sites) {
				inner := b.Compose(fetch(s))
				held = append(held, inner)
				want = append(want, snapshot(inner))
			}
			lastPage, lastDoc = p, p.Doc
		})
	}
	for i, p := range held {
		if got := snapshot(p); got != want[i] {
			t.Errorf("page %d changed after later compositions:\n got %.200q\nwant %.200q", i, got, want[i])
		}
	}
	if lastPage.Doc != nil {
		t.Error("scoped page still has a document after its callback returned")
	}
	if !reflect.ValueOf(*lastDoc).IsZero() {
		t.Errorf("scoped document root after its callback = %+v, want a zeroed node", *lastDoc)
	}

	defer func() {
		if recover() == nil {
			t.Error("nested ComposeScoped did not panic")
		}
	}()
	fr := fetch(sites[2])
	b.ComposeScoped(fr, func(*Page) { b.ComposeScoped(fr, func(*Page) {}) })
}
