package cookies

import (
	"strings"
	"testing"
	"testing/quick"
	"time"
)

var t0 = time.Date(2023, 5, 1, 12, 0, 0, 0, time.UTC)

func fixedJar() *Jar {
	j := NewJar()
	j.Now = func() time.Time { return t0 }
	return j
}

func TestParseSetCookieBasic(t *testing.T) {
	c := ParseSetCookie("sid=abc123; Path=/; HttpOnly", "www.spiegel.de", t0)
	if c == nil {
		t.Fatal("nil cookie")
	}
	if c.Name != "sid" || c.Value != "abc123" || !c.HTTPOnly || !c.HostOnly {
		t.Fatalf("cookie = %+v", c)
	}
	if c.Domain != "www.spiegel.de" {
		t.Fatalf("domain = %q", c.Domain)
	}
}

func TestParseSetCookieDomainAttribute(t *testing.T) {
	c := ParseSetCookie("t=1; Domain=.spiegel.de", "www.spiegel.de", t0)
	if c == nil || c.Domain != "spiegel.de" || c.HostOnly {
		t.Fatalf("cookie = %+v", c)
	}
}

func TestParseSetCookieRejectsForeignDomain(t *testing.T) {
	if c := ParseSetCookie("t=1; Domain=zeit.de", "www.spiegel.de", t0); c != nil {
		t.Fatalf("foreign domain accepted: %+v", c)
	}
}

func TestParseSetCookieRejectsPublicSuffixDomain(t *testing.T) {
	if c := ParseSetCookie("t=1; Domain=de", "www.spiegel.de", t0); c != nil {
		t.Fatalf("public suffix domain accepted: %+v", c)
	}
}

func TestParseSetCookieMalformed(t *testing.T) {
	for _, h := range []string{"", "noequals", "=value", "  =x; Path=/"} {
		if c := ParseSetCookie(h, "a.de", t0); c != nil {
			t.Errorf("ParseSetCookie(%q) = %+v, want nil", h, c)
		}
	}
}

func TestParseSetCookieMaxAge(t *testing.T) {
	c := ParseSetCookie("t=1; Max-Age=60", "a.de", t0)
	if c.Expires != t0.Add(60*time.Second) {
		t.Fatalf("expires = %v", c.Expires)
	}
	// Max-Age <= 0 expires immediately.
	c = ParseSetCookie("t=1; Max-Age=0", "a.de", t0)
	if !c.Expired(t0) {
		t.Fatal("Max-Age=0 not expired")
	}
}

func TestParseSetCookieExpires(t *testing.T) {
	h := "t=1; Expires=" + t0.Add(time.Hour).Format(time.RFC1123)
	c := ParseSetCookie(h, "a.de", t0)
	if c.Expired(t0) || !c.Expired(t0.Add(2*time.Hour)) {
		t.Fatalf("expires handling wrong: %+v", c)
	}
}

func TestJarStoreAndRetrieve(t *testing.T) {
	j := fixedJar()
	j.SetFromHeaders("www.spiegel.de", []string{
		"sid=1; Path=/",
		"pref=dark; Domain=spiegel.de",
	})
	if got := header(j, "www.spiegel.de", "/article", false); got != "pref=dark; sid=1" {
		t.Fatalf("got %q", got)
	}
	// Host-only cookie must not match a sibling subdomain; domain
	// cookie must.
	if got := header(j, "abo.spiegel.de", "/", false); got != "pref=dark" {
		t.Fatalf("sibling got %q", got)
	}
}

func TestJarPathMatching(t *testing.T) {
	j := fixedJar()
	j.SetFromHeaders("a.de", []string{"p=1; Path=/shop"})
	if h := header(j, "a.de", "/shop/cart", false); h != "p=1" {
		t.Fatalf("/shop/cart: %q", h)
	}
	if h := header(j, "a.de", "/shopping", false); h != "" {
		t.Fatalf("/shopping must not match /shop: %q", h)
	}
	if h := header(j, "a.de", "/", false); h != "" {
		t.Fatalf("/: %q", h)
	}
}

func TestJarSecure(t *testing.T) {
	j := fixedJar()
	j.SetFromHeaders("a.de", []string{"s=1; Secure"})
	if header(j, "a.de", "/", false) != "" {
		t.Fatal("secure cookie sent over insecure channel")
	}
	if header(j, "a.de", "/", true) != "s=1" {
		t.Fatal("secure cookie not sent over secure channel")
	}
}

func TestJarOverwrite(t *testing.T) {
	j := fixedJar()
	j.SetFromHeaders("a.de", []string{"k=old"})
	j.SetFromHeaders("a.de", []string{"k=new"})
	all := j.All()
	if len(all) != 1 || all[0].Value != "new" {
		t.Fatalf("all = %+v", all)
	}
}

func TestJarDeleteViaExpiry(t *testing.T) {
	j := fixedJar()
	j.SetFromHeaders("a.de", []string{"k=v"})
	j.SetFromHeaders("a.de", []string{"k=; Max-Age=0"})
	if j.Len() != 0 {
		t.Fatal("expired set must delete")
	}
}

func TestJarExpiryOnRead(t *testing.T) {
	j := NewJar()
	now := t0
	j.Now = func() time.Time { return now }
	j.SetFromHeaders("a.de", []string{"k=v; Max-Age=10"})
	if len(j.All()) != 1 {
		t.Fatal("cookie missing")
	}
	now = t0.Add(time.Minute)
	if len(j.All()) != 0 {
		t.Fatal("expired cookie returned")
	}
}

func TestJarClear(t *testing.T) {
	j := fixedJar()
	j.SetFromHeaders("a.de", []string{"k=v"})
	j.Clear()
	if j.Len() != 0 {
		t.Fatal("clear failed")
	}
}

func TestJarDeterministicOrder(t *testing.T) {
	j := fixedJar()
	j.SetFromHeaders("a.de", []string{"b=2", "a=1", "c=3"})
	var prev string
	for _, c := range j.All() {
		if c.Name < prev {
			t.Fatal("All() not sorted")
		}
		prev = c.Name
	}
}

func TestClassify(t *testing.T) {
	fp := &Cookie{Domain: "abo.spiegel.de"}
	tp := &Cookie{Domain: "trackpix1.example"}
	if Classify(fp, "www.spiegel.de") != FirstParty {
		t.Fatal("same-site cookie must be first-party")
	}
	if Classify(tp, "www.spiegel.de") != ThirdParty {
		t.Fatal("tracker cookie must be third-party")
	}
}

func TestCount(t *testing.T) {
	j := fixedJar()
	j.SetFromHeaders("www.site.de", []string{"own=1"})
	j.SetFromHeaders("cdn.assets.example", []string{"c=1"})
	j.SetFromHeaders("sync.trackpix1.example", []string{"tr=1"})
	isTracking := func(d string) bool { return strings.Contains(d, "trackpix") }
	tally := Count(j, "www.site.de", isTracking)
	if tally.FirstParty != 1 || tally.ThirdParty != 2 || tally.Tracking != 1 {
		t.Fatalf("tally = %+v", tally)
	}
}

func TestClassString(t *testing.T) {
	if FirstParty.String() != "first-party" || ThirdParty.String() != "third-party" {
		t.Fatal("Class.String wrong")
	}
}

// header is the Cookie header the jar sends to host+path.
func header(j *Jar, host, path string, secure bool) string {
	return string(j.AppendCookieHeader(nil, host, path, secure))
}

// Property: a stored, unexpired host cookie is always returned for its
// own host and path /.
func TestQuickRoundTrip(t *testing.T) {
	f := func(name, value string) bool {
		name = sanitizeToken(name)
		if name == "" {
			return true
		}
		value = sanitizeToken(value)
		j := fixedJar()
		j.SetFromHeaders("host.de", []string{name + "=" + value})
		return header(j, "host.de", "/", true) == name+"="+value
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// sanitizeToken strips separators that the cookie grammar forbids.
func sanitizeToken(s string) string {
	var b strings.Builder
	for _, r := range s {
		if r > ' ' && r < 127 && r != ';' && r != '=' && r != ',' {
			b.WriteRune(r)
		}
	}
	return b.String()
}
