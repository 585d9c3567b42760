package main

import (
	"bytes"
	"context"
	"net/http"
	"testing"

	"cookiewalk"
	"cookiewalk/internal/measure"
	"cookiewalk/internal/vantage"
)

// TestTimedTransportFidelity checks the traced run measures production
// code: observations through the timing wrapper are byte-identical to
// observations without it, and every request still takes the
// RoundTripBody fast path rather than the plain http.RoundTripper one.
func TestTimedTransportFidelity(t *testing.T) {
	// The memo off: every visit through the wrapper runs the whole
	// pipeline instead of reusing an analysis the unwrapped visit made.
	plain := cookiewalk.New(cookiewalk.Config{Seed: 7, Scale: 0.01, NoAnalysisCache: true})
	var farm farmTimer
	timed := cookiewalk.New(cookiewalk.Config{Seed: 7, Scale: 0.01, NoAnalysisCache: true, WrapTransport: farm.wrap})
	if _, ok := timed.Crawler().Transport.(bodyTransport); !ok {
		t.Fatal("the wrapped transport does not offer RoundTripBody")
	}
	codec := measure.ObservationCodec{}
	ctx := context.Background()
	targets := plain.Targets()
	visits := 0
	for _, vp := range vantage.All() {
		for i := 0; i < len(targets); i += 3 {
			a := plain.Crawler().Visit(ctx, vp, targets[i], measure.VisitOpts{})
			b := timed.Crawler().Visit(ctx, vp, targets[i], measure.VisitOpts{})
			ea, err := codec.Encode(a)
			if err != nil {
				t.Fatal(err)
			}
			eb, err := codec.Encode(b)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(ea, eb) {
				t.Fatalf("%s from %s: observation differs through the timing wrapper:\n%+v\n%+v", targets[i], vp.Name, a, b)
			}
			visits++
		}
	}
	if farm.requests.Load() < int64(visits) {
		t.Errorf("wrapper timed %d requests for %d visits", farm.requests.Load(), visits)
	}
	if n := farm.plain.Load(); n != 0 {
		t.Errorf("%d requests took the plain RoundTrip path", n)
	}
	if farm.busy() <= 0 {
		t.Error("no farm time recorded")
	}
}

// plainTransport offers only http.RoundTripper.
type plainTransport struct{ http.RoundTripper }

func TestTimedTransportOffersOnlyWhatItWraps(t *testing.T) {
	var farm farmTimer
	s := cookiewalk.New(cookiewalk.Config{Seed: 7, Scale: 0.01})
	if _, ok := farm.wrap(plainTransport{s.Transport()}).(bodyTransport); ok {
		t.Fatal("wrapper of a plain RoundTripper claims the RoundTripBody fast path")
	}
}

// TestCrawlLandscapeMatchesCrawler checks the traced run's own
// composition of the crawl yields what Crawler.Landscape yields — with
// and without a checkpoint, and when replaying that checkpoint.
func TestCrawlLandscapeMatchesCrawler(t *testing.T) {
	ctx := context.Background()
	cfg := cookiewalk.Config{Seed: 7, Scale: 0.01}
	ref := cookiewalk.New(cfg)
	targets := ref.Targets()
	l, err := ref.Crawler().Landscape(ctx, vantage.All(), targets)
	if err != nil {
		t.Fatal(err)
	}
	want, err := checkLandscape(ref.Crawler(), l, targets)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	for _, run := range []struct {
		name   string
		dir    string
		resume bool
	}{{"plain", "", false}, {"checkpointed", dir, false}, {"replayed", dir, true}} {
		tr := new(tracer)
		c := cfg
		c.WrapTransport = tr.farm.wrap
		s := cookiewalk.New(c)
		got, err := crawlLandscape(ctx, s.Crawler(), targets, run.dir, run.resume, tr)
		if err != nil {
			t.Fatalf("%s: %v", run.name, err)
		}
		digest, err := checkLandscape(s.Crawler(), got, targets)
		if err != nil {
			t.Fatalf("%s: %v", run.name, err)
		}
		if digest != want {
			t.Errorf("%s crawl differs from Crawler.Landscape's", run.name)
		}
		visited := len(tr.visitDurs)
		if run.resume && visited != 0 {
			t.Errorf("replay visited %d targets, want 0", visited)
		}
		if !run.resume && visited != len(targets)*len(vantage.All()) {
			t.Errorf("%s: %d visit spans, want %d", run.name, visited, len(targets)*len(vantage.All()))
		}
	}
}
