// Package framelog is the one append-only, checksummed log format
// behind every durable file cookiewalk writes: the campaign checkpoint
// journals (cwjl1), the trend round store (cwts1) and the fleet lease
// ledger (cwled2). A log is a magic header followed by frames:
//
//	file  := magic frame*
//	frame := uvarint(len(payload)) u64le(fnv1a(payload)) payload
//
// The payload is opaque here; each format owns its encoding, its
// magic and its bound on a single payload's length (which exists only
// to reject absurd length prefixes in a corrupted file).
//
// A crash at any byte leaves a prefix-consistent log: scanning stops at
// the first torn or corrupt frame — a torn length prefix, a length
// past the bound or past the end of the data, a checksum mismatch, or a
// payload the format's own check rejects — and a writer reopening the
// file truncates that tail before appending, so torn writes can only
// shrink a log, never poison it.
//
// One rule decides what a file is: an empty file or a strict prefix of
// the magic (a crash while writing the header) is a fresh log; any
// other leading bytes are foreign, and Open refuses them with
// ErrForeign rather than overwrite someone else's file.
//
// Durability is the caller's: Append only buffers, Flush hands the
// buffer to the OS, Sync also fsyncs. Callers pick their own points.
package framelog

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"strings"
)

// ErrForeign reports a file that starts with neither the expected magic
// nor a strict prefix of it: some other format, or a newer version.
var ErrForeign = errors.New("bad magic: not a log of this format")

// checksum is 64-bit FNV-1a over p — bit-identical to hash/fnv's New64a
// and xrand.Hash64, inlined because it runs over every byte scanned.
func checksum(p []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, b := range p {
		h ^= uint64(b)
		h *= prime64
	}
	return h
}

// Scan walks the log in data, calling accept with every frame's
// payload in order; accept returning false ends the valid prefix at
// that frame, exactly like a checksum mismatch (a nil accept takes
// every frame). The payload aliases data. Scan returns the number of
// accepted frames and valid, the end offset of the last one — the
// point a writer truncates to. valid is len(magic) for an intact header
// with no frames, and 0 when there is no intact header: data is fresh
// (empty or a torn header, err nil) or foreign (err is ErrForeign).
func Scan(data []byte, magic string, maxPayload int, accept func(payload []byte) bool) (frames, valid int, err error) {
	if len(data) < len(magic) {
		if !strings.HasPrefix(magic, string(data)) {
			return 0, 0, ErrForeign
		}
		return 0, 0, nil
	}
	if string(data[:len(magic)]) != magic {
		return 0, 0, ErrForeign
	}
	off := len(magic)
	for off < len(data) {
		plen, n := binary.Uvarint(data[off:])
		if n <= 0 || plen > uint64(maxPayload) {
			break
		}
		rest := data[off+n:]
		if uint64(len(rest)) < 8+plen {
			break
		}
		payload := rest[8 : 8+plen]
		if checksum(payload) != binary.LittleEndian.Uint64(rest[:8]) {
			break
		}
		if accept != nil && !accept(payload) {
			break
		}
		frames++
		off += n + 8 + int(plen)
	}
	return frames, off, nil
}

// Writer appends frames to one log file through a buffer.
type Writer struct {
	f          *os.File
	w          *bufio.Writer
	maxPayload int
	hdr        [binary.MaxVarintLen64 + 8]byte
}

// Open opens the log at path for appending, creating it if needed.
// Existing content is scanned first (accept as in Scan, so the caller
// loads its records in the same pass) and the file is truncated to its
// valid prefix; a fresh log gets the magic written (buffered, like any
// append). A foreign file is left untouched and refused with an error
// wrapping ErrForeign that names the file.
func Open(path, magic string, maxPayload int, accept func(payload []byte) bool) (*Writer, error) {
	data, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, err
	}
	_, valid, err := Scan(data, magic, maxPayload, accept)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	if valid < len(data) {
		if err := f.Truncate(int64(valid)); err != nil {
			f.Close()
			return nil, err
		}
	}
	if _, err := f.Seek(int64(valid), 0); err != nil {
		f.Close()
		return nil, err
	}
	w := &Writer{f: f, w: bufio.NewWriter(f), maxPayload: maxPayload}
	if valid == 0 {
		w.w.WriteString(magic) // a bufio error is sticky: the next Flush reports it
	}
	return w, nil
}

// Append frames payload into the buffer. A payload over the log's
// bound is refused: Scan would reject the frame and everything after it.
func (w *Writer) Append(payload []byte) error {
	if len(payload) > w.maxPayload {
		return fmt.Errorf("framelog: %d-byte payload exceeds the %d-byte bound", len(payload), w.maxPayload)
	}
	n := binary.PutUvarint(w.hdr[:], uint64(len(payload)))
	binary.LittleEndian.PutUint64(w.hdr[n:], checksum(payload))
	if _, err := w.w.Write(w.hdr[:n+8]); err != nil {
		return err
	}
	_, err := w.w.Write(payload)
	return err
}

// Flush writes the buffered frames to the file (no fsync).
func (w *Writer) Flush() error { return w.w.Flush() }

// Sync flushes and fsyncs: every frame appended so far is durable.
func (w *Writer) Sync() error {
	if err := w.w.Flush(); err != nil {
		return err
	}
	return w.f.Sync()
}

// Close syncs and closes the file.
func (w *Writer) Close() error {
	err := w.Sync()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	return err
}
