package campaign

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"cookiewalk/internal/framelog"
)

// The journal is the campaign engine's durable record of delivered
// results: one append-only file per shard, written in delivery order
// (strictly increasing target index), so a crash at ANY byte leaves a
// prefix-consistent log — every fully framed record describes a result
// that the sink really observed, and at most the torn tail record is
// lost (its target simply re-runs on resume).
//
// File layout (an internal/framelog log):
//
//	file   := "cwjl1\n" frame*
//	frame  := uvarint(len(payload)) u64le(fnv1a(payload)) payload
//	payload:= uvarint(index) uvarint(len(err)) err value
//
// value is the caller codec's encoding of the result, opaque to the
// journal. A frame that framelog rejects (torn, overrunning, checksum
// mismatch) or whose payload is malformed invalidates the file FROM
// THAT OFFSET ON: loading stops there, and a writer reopening the file
// truncates the invalid tail before appending — torn writes can never
// poison a journal, they only shrink it.

// journalMagic identifies (and versions) journal files.
const journalMagic = "cwjl1\n"

// maxJournalRecord bounds a single record's payload. It exists purely
// to reject absurd length prefixes when scanning a corrupted file, not
// to limit real results (64 MiB dwarfs any serialized observation).
const maxJournalRecord = 64 << 20

// journalRecord is one replayable result loaded from a journal.
type journalRecord struct {
	// errStr is the visit error's message ("" for success); the value
	// bytes are the codec's encoding of the result value.
	errStr string
	value  []byte
}

// ShardFilename returns the journal file name of shard s inside a
// checkpoint directory ("shard-0003.cwj") — shared by the engine's
// writers and the fleet layer's journal shipping, so a worker-produced
// range journal lands under exactly the name a local run would use.
func ShardFilename(s int) string {
	return fmt.Sprintf("shard-%04d.cwj", s)
}

// shardFile names shard s's journal inside a checkpoint dir. Loading
// never relies on the name — records are self-describing — so resumes
// with a different shard count interoperate with existing files.
func shardFile(dir string, shard int) string {
	return filepath.Join(dir, ShardFilename(shard))
}

// CheckJournal verifies that data is a COMPLETE, well-formed journal of
// the global target range [lo, hi): intact magic, every frame valid
// with no trailing bytes, and record indices exactly lo..hi-1 in
// delivery order. The fleet coordinator runs it on every shipped shard
// journal before merging, so a torn upload, a half-finished range or a
// journal from the wrong range can never poison an assembled campaign.
func CheckJournal(data []byte, lo, hi int) error {
	next, firstBad := lo, -1
	records, valid := scanJournal(data, func(index int, rec journalRecord) {
		if index != next && firstBad < 0 {
			firstBad = index
		}
		next++
	})
	if valid == 0 {
		return fmt.Errorf("campaign: journal missing magic header")
	}
	if valid != len(data) {
		return fmt.Errorf("campaign: journal invalid after %d of %d bytes (%d valid records)", valid, len(data), records)
	}
	if firstBad >= 0 {
		return fmt.Errorf("campaign: journal out of order: saw index %d where %d..%d expected in sequence", firstBad, lo, hi-1)
	}
	if records != hi-lo {
		return fmt.Errorf("campaign: journal covers %d of %d records for range [%d,%d)", records, hi-lo, lo, hi)
	}
	return nil
}

// journalWriter appends records to one shard's journal file, flushing
// every flushEvery records and syncing on close.
type journalWriter struct {
	w     *framelog.Writer
	buf   []byte // payload scratch, reused across appends
	every int
	since int
}

// openJournal opens (or creates) a shard journal for appending. An
// existing file is scanned first and truncated to its last valid
// record, so appends always extend a consistent prefix. A file that is
// not a journal at all is started over: the shard file names belong to
// the checkpoint directory, whose manifest already vouched for it.
func openJournal(path string, flushEvery int) (*journalWriter, error) {
	if flushEvery <= 0 {
		flushEvery = defaultFlushEvery
	}
	w, err := framelog.Open(path, journalMagic, maxJournalRecord, validPayload)
	if errors.Is(err, framelog.ErrForeign) {
		if err = os.Remove(path); err == nil {
			w, err = framelog.Open(path, journalMagic, maxJournalRecord, validPayload)
		}
	}
	if err != nil {
		return nil, err
	}
	return &journalWriter{w: w, every: flushEvery}, nil
}

// append encodes and buffers one record.
func (jw *journalWriter) append(index int, errStr string, value []byte) error {
	p := binary.AppendUvarint(jw.buf[:0], uint64(index))
	p = binary.AppendUvarint(p, uint64(len(errStr)))
	p = append(p, errStr...)
	p = append(p, value...)
	jw.buf = p // keep the grown scratch for the next record
	if err := jw.w.Append(p); err != nil {
		return err
	}
	jw.since++
	if jw.since >= jw.every {
		jw.since = 0
		return jw.w.Flush()
	}
	return nil
}

// close flushes, syncs and closes the journal. Called at shard end, it
// makes the shard's whole record sequence durable.
func (jw *journalWriter) close() error { return jw.w.Close() }

// scanJournal parses one journal's bytes, calling emit for every valid
// record, and returns the record count and the byte offset of the end
// of the valid prefix (0 when the magic is missing or torn). Parsing
// stops at the first invalid frame or malformed payload, so only a
// prefix-consistent slice of the file is ever trusted.
func scanJournal(data []byte, emit func(index int, rec journalRecord)) (records, valid int) {
	records, valid, _ = framelog.Scan(data, journalMagic, maxJournalRecord, func(p []byte) bool {
		index, errStr, value, ok := parsePayload(p)
		if ok && emit != nil {
			emit(index, journalRecord{errStr: errStr, value: value})
		}
		return ok
	})
	return records, valid
}

// validPayload is the scan check of a writer reopening a journal.
func validPayload(p []byte) bool {
	_, _, _, ok := parsePayload(p)
	return ok
}

// parsePayload splits a record payload into (index, errStr, value).
func parsePayload(p []byte) (index int, errStr string, value []byte, ok bool) {
	idx, n := binary.Uvarint(p)
	if n <= 0 || idx > 1<<62 {
		return 0, "", nil, false
	}
	p = p[n:]
	elen, n := binary.Uvarint(p)
	if n <= 0 || uint64(len(p)-n) < elen {
		return 0, "", nil, false
	}
	errStr = string(p[n : n+int(elen)])
	value = p[n+int(elen):]
	return int(idx), errStr, value, true
}

// loadJournals reads every journal file in dir and returns the union
// of their valid records keyed by target index. Records are
// self-describing, so the map is correct even when the files were
// written under a different shard layout than the resuming run's.
func loadJournals(dir string) (map[int]journalRecord, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return map[int]journalRecord{}, nil
		}
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".cwj") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	replay := make(map[int]journalRecord)
	for _, name := range names {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		scanJournal(data, func(index int, rec journalRecord) {
			replay[index] = rec
		})
	}
	return replay, nil
}

// removeJournals deletes every journal file (and manifest) in dir —
// the fresh-start path of a checkpointed Run.
func removeJournals(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if strings.HasSuffix(e.Name(), ".cwj") || e.Name() == manifestName {
			if err := os.Remove(filepath.Join(dir, e.Name())); err != nil {
				return err
			}
		}
	}
	return nil
}
