package measure

import (
	"math"
	"testing"

	"cookiewalk/internal/campaign"
)

// TestExperimentCodecRoundTrips pins Decode(Encode(v)) == v for every
// experiment journal codec — the property resumed campaigns rest on.
func TestExperimentCodecRoundTrips(t *testing.T) {
	cases := []struct {
		name  string
		codec campaign.Codec
		vals  []any
	}{
		{"sitecookies", SiteCookiesCodec{}, []any{
			SiteCookies{Domain: "a.example", Tally: CookieTally{FirstParty: 1.5, ThirdParty: 2.25, Tracking: 42}},
			SiteCookies{Domain: "b.example", Err: "webfarm: host not found"},
			SiteCookies{},
		}},
		{"bypass", bypassCodec{}, []any{
			bypassOutcome{Domain: "wall.example", Wall: true, AdblockPlea: true},
			bypassOutcome{Domain: "gone.example", ScrollLocked: true},
			bypassOutcome{},
		}},
		{"ablation", ablationCodec{}, []any{
			ablationCounts{full: true, noShadow: true},
			ablationCounts{mainOnly: true, noFrames: true},
			ablationCounts{},
		}},
		{"autoreject", autoRejectCodec{}, []any{
			outRejected, outNoReject, outNoBanner, outFailed,
		}},
		{"botcheck", botCheckCodec{}, []any{
			botPair{mitigated: true}, botPair{naive: true}, botPair{},
		}},
		{"revocation", revocationCodec{}, []any{
			revOutcome{tested: true, gone: true, persisted: true, back: true},
			revOutcome{tested: true},
			revOutcome{},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, v := range tc.vals {
				enc, err := tc.codec.Encode(v)
				if err != nil {
					t.Fatalf("encode %#v: %v", v, err)
				}
				dec, err := tc.codec.Decode(enc)
				if err != nil {
					t.Fatalf("decode %#v: %v", v, err)
				}
				if dec != v {
					t.Fatalf("round trip: got %#v, want %#v", dec, v)
				}
			}
			// Wrong type refused, never silently encoded.
			if _, err := tc.codec.Encode(struct{}{}); err == nil {
				t.Fatal("encoding a foreign type succeeded")
			}
		})
	}
}

// TestExperimentCodecsRejectCrossWiring: every codec carries a
// distinct tag, so a journal replayed through the wrong campaign's
// codec fails decoding (and the engine degrades that record to a fresh
// visit) instead of mis-decoding.
func TestExperimentCodecsRejectCrossWiring(t *testing.T) {
	enc, err := (ablationCodec{}).Encode(ablationCounts{full: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, other := range []campaign.Codec{
		SiteCookiesCodec{}, bypassCodec{}, autoRejectCodec{}, botCheckCodec{}, revocationCodec{}, ObservationCodec{},
	} {
		if _, err := other.Decode(enc); err == nil {
			t.Fatalf("%T decoded an ablation record", other)
		}
	}
	// Truncated and trailing-garbage records are refused too.
	if _, err := (ablationCodec{}).Decode(enc[:1]); err == nil {
		t.Fatal("decoded a truncated record")
	}
	if _, err := (ablationCodec{}).Decode(append(append([]byte(nil), enc...), 0xFF)); err == nil {
		t.Fatal("decoded a record with trailing bytes")
	}
}

// FuzzExperimentCodecs: arbitrary values of all six experiment codecs
// round-trip exactly (floats bit for bit, NaNs included), every strict
// prefix of a valid record is refused, and arbitrary bytes never panic
// any Decode.
func FuzzExperimentCodecs(f *testing.F) {
	f.Add("a.example", "", 1.5, 2.25, 42.0, byte(0x0f), []byte{siteCookiesTag, 0, 0})
	f.Add("", "webfarm: host not found", 0.0, math.Inf(-1), math.NaN(), byte(0), []byte{ablationTag, 0xff, 0})
	f.Add("b.example", "x", -0.0, 1e308, 5e-324, byte(0xff), []byte{autoRejectTag, 4, 0})
	f.Add("", "", 0.0, 0.0, 0.0, byte(3), []byte{bypassTag, 1, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01})
	f.Fuzz(func(t *testing.T, domain, errStr string, first, third, tracking float64, flags byte, raw []byte) {
		bit := func(i uint) bool { return flags>>i&1 != 0 }
		for _, c := range []struct {
			codec campaign.Codec
			v     any
		}{
			{SiteCookiesCodec{}, SiteCookies{Domain: domain, Err: errStr,
				Tally: CookieTally{FirstParty: first, ThirdParty: third, Tracking: tracking}}},
			{bypassCodec{}, bypassOutcome{Domain: domain, Wall: bit(0), AdblockPlea: bit(1), ScrollLocked: bit(2)}},
			{ablationCodec{}, ablationCounts{full: bit(0), noShadow: bit(1), noFrames: bit(2), mainOnly: bit(3)}},
			{autoRejectCodec{}, rejectOutcome(flags % (byte(outFailed) + 1))},
			{botCheckCodec{}, botPair{mitigated: bit(0), naive: bit(1)}},
			{revocationCodec{}, revOutcome{tested: bit(0), gone: bit(1), persisted: bit(2), back: bit(3)}},
		} {
			enc, err := c.codec.Encode(c.v)
			if err != nil {
				t.Fatalf("%T: encode %#v: %v", c.codec, c.v, err)
			}
			got, err := c.codec.Decode(enc)
			if err != nil {
				t.Fatalf("%T: decode of valid encoding failed: %v", c.codec, err)
			}
			if !sameExperimentValue(got, c.v) {
				t.Fatalf("%T: round trip: got %#v, want %#v", c.codec, got, c.v)
			}
			for cut := 0; cut < len(enc); cut++ {
				if _, err := c.codec.Decode(enc[:cut]); err == nil {
					t.Fatalf("%T: decoded a %d-byte prefix of a %d-byte record", c.codec, cut, len(enc))
				}
			}
			_, _ = c.codec.Decode(raw) // must not panic
		}
	})
}

// sameExperimentValue is exact equality for experiment codec values:
// == for the verdict types, bitwise for SiteCookies' floats (so NaN
// equals itself and -0 differs from 0).
func sameExperimentValue(got, want any) bool {
	w, ok := want.(SiteCookies)
	if !ok {
		return got == want
	}
	g, ok := got.(SiteCookies)
	bits := math.Float64bits
	return ok && g.Domain == w.Domain && g.Err == w.Err &&
		bits(g.Tally.FirstParty) == bits(w.Tally.FirstParty) &&
		bits(g.Tally.ThirdParty) == bits(w.Tally.ThirdParty) &&
		bits(g.Tally.Tracking) == bits(w.Tally.Tracking)
}
