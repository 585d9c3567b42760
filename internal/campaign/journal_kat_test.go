package campaign

import (
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"
)

// TestJournalKnownAnswer pins the cwjl1 on-disk bytes: three records,
// one carrying an error string, must encode to exactly this hex. Any
// change to the magic, the frame layout, the checksum or the payload
// layout breaks every journal already on disk, and fails here.
func TestJournalKnownAnswer(t *testing.T) {
	const want = "63776a6c310a" + // magic "cwjl1\n"
		// record := uvarint(len) u64le(FNV-1a) payload, where
		// payload := uvarint(index) uvarint(len(err)) err value.
		"07" + "f0953216218f217c" + "00" + "00" + "6f62732d30" +
		"18" + "5929385e616265a7" + "01" + "16" + "6469616c207463703a206e6f207375636820686f7374" +
		"07" + "b5c57dceb6f34acc" + "ac02" + "00" + "0001feff"
	path := filepath.Join(t.TempDir(), ShardFilename(0))
	writeRecords(t, path, []struct {
		index int
		err   string
		value string
	}{
		{index: 0, value: "obs-0"},
		{index: 1, err: "dial tcp: no such host", value: ""},
		{index: 300, value: "\x00\x01\xfe\xff"},
	})
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(data); got != want {
		t.Fatalf("cwjl1 bytes moved:\n got %s\nwant %s", got, want)
	}
}
