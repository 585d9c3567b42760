package dom

import (
	"reflect"
	"testing"
)

// FuzzParse exercises the tree builder with adversarial input. In
// normal test runs the seed corpus executes; `go test -fuzz=FuzzParse`
// explores further.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"",
		"<html><body><p>ok</p></body></html>",
		"<div><template shadowrootmode=\"open\"><b>x</b></template></div>",
		"</template></div><template shadowrootmode=closed>",
		"<p><p><p><li><tr><td></div></span>",
		"<script>while(1){}</script><iframe src=x>",
		"<<<>>><!---><!doctype  ><?php ?>",
		"<a href='unterminated",
		"<template shadowrootmode=open><template shadowrootmode=open>",
		"\x00\xff<div \x00 id=\"a\">",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		doc := Parse(input)
		if doc == nil {
			t.Fatal("nil document")
		}
		if doc.Body() == nil {
			t.Fatal("no body scaffold")
		}
		// Serialization must be total and re-parseable.
		out := Render(doc)
		doc2 := Parse(out)
		if doc2 == nil || doc2.Body() == nil {
			t.Fatal("re-parse failed")
		}
		// Render is a fixed point after one round trip (idempotent
		// serialization), which keeps snapshots stable.
		if again := Render(doc2); again != Render(Parse(again)) {
			t.Fatalf("render not idempotent for %q", input)
		}
	})
}

// FuzzScopedParse checks a scoped parser against the package-level
// Parse: after parsing a decoy and recycling it, the parser must build
// the same tree for the input as a fresh parse — no state leaks from
// recycled memory — and a second Recycle must zero even the first
// tree's root, so a stale pointer reads an empty node instead of
// another page.
func FuzzScopedParse(f *testing.F) {
	for _, s := range []string{
		"",
		"<html><body><p>ok</p></body></html>",
		"<div id=a class=b><template shadowrootmode=\"open\"><b title=x>x</b></template></div>",
		"<p><p><li><tr><td></div></span><iframe src=x>",
		"<a href='unterminated",
		"<div a=1 b=2 a=3 c d e f g h i j k l m n o p q r s t u v w x y z aa ab ac ad ae af ag ah>",
	} {
		f.Add(s)
	}
	const decoy = `<!DOCTYPE html><div id="decoy" class="overlay" hidden>` +
		`<template shadowrootmode="open"><p title="stale">decoy text</p></template>` +
		`<ul><li>one<li>two</ul><script>x()</script></div>`
	ps := NewScopedParser()
	f.Fuzz(func(t *testing.T, input string) {
		first := ps.Parse(decoy)
		ps.Recycle()
		if !reflect.ValueOf(*first).IsZero() {
			t.Fatalf("decoy root after Recycle = %+v, want a zeroed node", *first)
		}
		doc := ps.Parse(input)
		if got, want := Render(doc), Render(Parse(input)); got != want {
			t.Fatalf("scoped parse after recycle renders\n%q\nwant\n%q", got, want)
		}
		ps.Recycle()
		if !reflect.ValueOf(*first).IsZero() {
			t.Fatalf("decoy root after two recycles = %+v, want a zeroed node", *first)
		}
	})
}

// FuzzSelectors ensures arbitrary selector sources never panic the
// engine, compiled or rejected.
func FuzzSelectors(f *testing.F) {
	for _, s := range []string{
		"div", "#a", ".b.c", "a[b=c]", "x > y z", "a,b,c", "*",
		"[href^='https://']", "div.banner#x[role=dialog]", ">", "[", "..",
	} {
		f.Add(s)
	}
	doc := Parse(selectorFixture)
	f.Fuzz(func(t *testing.T, src string) {
		sel, err := CompileSelector(src)
		if err != nil {
			return
		}
		_ = doc.QueryAll(sel)
	})
}
