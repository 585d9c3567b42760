package trend

import (
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"cookiewalk/internal/measure"
)

// TestStoreKnownAnswer pins the cwts1 on-disk bytes: a store holding
// two rounds must encode to exactly this hex. Any change to the magic,
// the frame layout, the checksum or the Record JSON breaks every store
// already on disk, and fails here.
func TestStoreKnownAnswer(t *testing.T) {
	const want = "63777473310a" + // magic "cwts1\n"
		"e302" + "e1d3e58dab0aecdc" + // round 0: uvarint length, u64le FNV-1a
		"7b22726f756e64223a302c226174223a313730303030303030302c2273756d6d" +
		"617279223a7b2274617267657473223a313135372c22636f6f6b696577616c6c" +
		"73223a3238302c2270726576616c656e6365223a302e32352c22746f70316b5f" +
		"70726576616c656e6365223a302c2270617977616c6c5f7368617265223a302c" +
		"2270726963655f636f756e74223a302c2270726963655f6d696e223a302c2270" +
		"726963655f6d656469616e223a302c2270726963655f6d65616e223a302c2270" +
		"726963655f6d6178223a302c2270726963655f73686172655f61745f6d6f7374" +
		"5f33223a302c227065725f7670223a5b7b227670223a224765726d616e79222c" +
		"226575223a747275652c2276697369746564223a313135372c226572726f7273" +
		"223a302c226e6f5f62616e6e6572223a302c22726567756c6172223a302c2263" +
		"6f6f6b696577616c6c73223a3238302c2262616e6e65725f72617465223a307d" +
		"5d7d7d" +
		"e302" + "217fd08c18ee66cd" + // round 1: uvarint length, u64le FNV-1a
		"7b22726f756e64223a312c226174223a313730303030333630302c2273756d6d" +
		"617279223a7b2274617267657473223a313135372c22636f6f6b696577616c6c" +
		"73223a3238312c2270726576616c656e6365223a302e32352c22746f70316b5f" +
		"70726576616c656e6365223a302c2270617977616c6c5f7368617265223a302c" +
		"2270726963655f636f756e74223a302c2270726963655f6d696e223a302c2270" +
		"726963655f6d656469616e223a302c2270726963655f6d65616e223a302c2270" +
		"726963655f6d6178223a302c2270726963655f73686172655f61745f6d6f7374" +
		"5f33223a302c227065725f7670223a5b7b227670223a224765726d616e79222c" +
		"226575223a747275652c2276697369746564223a313135372c226572726f7273" +
		"223a302c226e6f5f62616e6e6572223a302c22726567756c6172223a302c2263" +
		"6f6f6b696577616c6c73223a3238312c2262616e6e65725f72617465223a307d" +
		"5d7d7d"
	dir := t.TempDir()
	s, err := Open(dir, testManifest())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		rec := Record{Round: i, At: 1700000000 + int64(i)*3600, Summary: measure.RoundSummary{
			Targets: 1157, Cookiewalls: 280 + i, Prevalence: 0.25,
			PerVP: []measure.VPTrendSplit{{VP: "Germany", EU: true, Visited: 1157, Cookiewalls: 280 + i}},
		}}
		if err := s.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, storeFile))
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(data); got != want {
		t.Fatalf("cwts1 bytes moved:\n got %s\nwant %s", got, want)
	}
}
