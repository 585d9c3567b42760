package main

import (
	"context"
	"testing"

	"cookiewalk"
	"cookiewalk/internal/measure"
	"cookiewalk/internal/vantage"
)

// TestCheckLandscapeRejectsWrongOutput runs the crawl check at a seed
// other than the reference 42: it passes the real crawl and fails each
// kind of wrong output.
func TestCheckLandscapeRejectsWrongOutput(t *testing.T) {
	s := cookiewalk.New(cookiewalk.Config{Seed: 7, Scale: 0.01})
	targets := s.Targets()
	crawl := func() *measure.Landscape {
		l, err := s.Crawler().Landscape(context.Background(), vantage.All(), targets)
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	if _, err := checkLandscape(s.Crawler(), crawl(), targets); err != nil {
		t.Fatalf("correct crawl rejected: %v", err)
	}
	de := 3 // Germany, where every cookiewall is shown
	for name, corrupt := range map[string]func(*measure.VPResult){
		"missed cookiewall": func(r *measure.VPResult) { r.Cookiewalls = r.Cookiewalls[1:] },
		"visit error":       func(r *measure.VPResult) { r.Errors++ },
		"missing visit":     func(r *measure.VPResult) { r.Visited-- },
	} {
		l := crawl()
		if l.PerVP[de].VP != "Germany" {
			t.Fatalf("vantage point %d is %s", de, l.PerVP[de].VP)
		}
		corrupt(&l.PerVP[de])
		if _, err := checkLandscape(s.Crawler(), l, targets); err == nil {
			t.Errorf("%s: check passed", name)
		}
	}
}
