package framelog

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

const testMagic = "test1\n"

// writeLog appends payloads to a fresh log at path and closes it.
func writeLog(t testing.TB, path, magic string, payloads ...[]byte) []byte {
	t.Helper()
	w, err := Open(path, magic, 1<<10, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range payloads {
		if err := w.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestScanClassifiesHeader: empty data and strict prefixes of the magic
// are fresh, anything else without the full magic is foreign, and an
// intact header with no frames is valid up to the header.
func TestScanClassifiesHeader(t *testing.T) {
	for _, c := range []struct {
		data    string
		valid   int
		foreign bool
		name    string
	}{
		{"", 0, false, "empty file"},
		{"tes", 0, false, "torn magic"},
		{testMagic[:len(testMagic)-1], 0, false, "magic missing its last byte"},
		{testMagic, len(testMagic), false, "header only"},
		{"cwled1\n", 0, true, "other magic"},
		{"x", 0, true, "one foreign byte"},
		{"test2\n\x00", 0, true, "other version"},
	} {
		frames, valid, err := Scan([]byte(c.data), testMagic, 16, nil)
		if frames != 0 || valid != c.valid || errors.Is(err, ErrForeign) != c.foreign {
			t.Errorf("%s: frames=%d valid=%d err=%v", c.name, frames, valid, err)
		}
	}
}

// TestScanStopsAtInvalidFrame: a rejected payload, a flipped byte, a
// torn frame and an oversize length prefix each end the valid prefix
// exactly at the previous frame.
func TestScanStopsAtInvalidFrame(t *testing.T) {
	data := writeLog(t, filepath.Join(t.TempDir(), "log"), testMagic, []byte("one"), []byte("two"), []byte("three"))
	frames, valid, err := Scan(data, testMagic, 16, nil)
	if frames != 3 || valid != len(data) || err != nil {
		t.Fatalf("clean log: frames=%d valid=%d/%d err=%v", frames, valid, len(data), err)
	}
	kept, afterTwo, _ := Scan(data, testMagic, 16, func(p []byte) bool { return string(p) != "three" })
	if kept != 2 || afterTwo >= len(data) {
		t.Fatalf("rejected payload: %d frames, valid %d", kept, afterTwo)
	}

	var seen []string
	n, v, _ := Scan(data, testMagic, 16, func(p []byte) bool {
		seen = append(seen, string(p))
		return true
	})
	if n != 3 || v != len(data) || len(seen) != 3 || seen[2] != "three" {
		t.Fatalf("accept saw %q (%d frames, %d valid)", seen, n, v)
	}

	flipped := bytes.Clone(data)
	flipped[len(flipped)-1] ^= 0x20
	if n, v, _ := Scan(flipped, testMagic, 16, nil); n != 2 || v != afterTwo {
		t.Fatalf("checksum mismatch: %d frames, valid %d, want 2 / %d", n, v, afterTwo)
	}
	if n, v, _ := Scan(data[:len(data)-1], testMagic, 16, nil); n != 2 || v != afterTwo {
		t.Fatalf("torn frame: %d frames, valid %d, want 2 / %d", n, v, afterTwo)
	}
	if n, _, _ := Scan(data, testMagic, 4, nil); n != 2 {
		t.Fatalf("5-byte payload over a 4-byte bound: %d frames, want 2", n)
	}
}

// TestOpenTruncatesAndRefuses: reopening truncates the invalid tail
// before appending, rewrites a torn header, and leaves a foreign file
// alone with an error naming it.
func TestOpenTruncatesAndRefuses(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "log")
	data := writeLog(t, path, testMagic, []byte("kept"))
	if err := os.WriteFile(path, append(data, 0x05, 0xff), 0o644); err != nil {
		t.Fatal(err)
	}
	repaired := writeLog(t, path, testMagic, []byte("next"))
	if !bytes.HasPrefix(repaired, data) {
		t.Fatal("reopen rewrote the valid prefix")
	}
	if n, v, _ := Scan(repaired, testMagic, 16, nil); n != 2 || v != len(repaired) {
		t.Fatalf("after truncate+append: %d frames, %d/%d valid", n, v, len(repaired))
	}

	torn := filepath.Join(dir, "torn")
	if err := os.WriteFile(torn, []byte("te"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got := writeLog(t, torn, testMagic, []byte("x")); !bytes.HasPrefix(got, []byte(testMagic)) {
		t.Fatalf("torn header not rewritten: %q", got)
	}

	foreign := filepath.Join(dir, "foreign")
	if err := os.WriteFile(foreign, []byte("not a log"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Open(foreign, testMagic, 16, nil)
	if !errors.Is(err, ErrForeign) || !bytes.Contains([]byte(err.Error()), []byte(foreign)) {
		t.Fatalf("foreign file: %v", err)
	}
	if got, _ := os.ReadFile(foreign); string(got) != "not a log" {
		t.Fatalf("foreign file modified: %q", got)
	}
}

// TestAppendRefusesOversizePayload: the writer never produces a frame
// its own scanner would reject.
func TestAppendRefusesOversizePayload(t *testing.T) {
	w, err := Open(filepath.Join(t.TempDir(), "log"), testMagic, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Append([]byte("12345")); err == nil {
		t.Fatal("5-byte payload accepted under a 4-byte bound")
	}
	if err := w.Append([]byte("1234")); err != nil {
		t.Fatal(err)
	}
}

// fuzzMagics are the magics of the three logs built on framelog: the
// campaign journal, the trend store and the fleet lease ledger.
var fuzzMagics = []string{"cwjl1\n", "cwts1\n", "cwled2\n"}

// FuzzScanFrames: for arbitrary bytes under each log's magic, Scan
// never panics, valid never exceeds the data, re-scanning the valid
// prefix gives the same frames, and opening the bytes as a file then
// appending one frame always yields exactly one more frame.
func FuzzScanFrames(f *testing.F) {
	dir := f.TempDir()
	for i, magic := range fuzzMagics {
		path := filepath.Join(dir, magic[:len(magic)-1])
		data := writeLog(f, path, magic, []byte("payload"), nil, bytes.Repeat([]byte{0xab}, 200))
		f.Add(i, data)
		f.Add(i, data[:len(data)-7])
		f.Add(i, []byte(magic[:3]))
	}
	f.Add(0, []byte("garbage"))
	f.Add(1, []byte{})
	f.Fuzz(func(t *testing.T, which int, data []byte) {
		magic := fuzzMagics[uint(which)%uint(len(fuzzMagics))]
		const bound = 1 << 10
		n, valid, _ := Scan(data, magic, bound, nil)
		if valid > len(data) {
			t.Fatalf("valid %d > len %d", valid, len(data))
		}
		if n2, valid2, _ := Scan(data[:valid], magic, bound, nil); n2 != n || valid2 != valid {
			t.Fatalf("re-scan of valid prefix: %d/%d frames, %d/%d bytes", n2, n, valid2, valid)
		}

		path := filepath.Join(t.TempDir(), "log")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		w, err := Open(path, magic, bound, nil)
		if errors.Is(err, ErrForeign) {
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Append([]byte("appended")); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		after, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		n3, valid3, err := Scan(after, magic, bound, nil)
		if err != nil || n3 != n+1 || valid3 != len(after) {
			t.Fatalf("open+append: %d frames (want %d), %d/%d valid, err %v", n3, n+1, valid3, len(after), err)
		}
	})
}
