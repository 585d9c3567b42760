package dist

import (
	"encoding/json"
	"errors"
	"fmt"

	"cookiewalk/internal/framelog"
	"cookiewalk/internal/xrand"
)

// The lease ledger is the coordinator's durable control plane: an
// append-only, checksummed record of every ledger state transition —
// coordinator start, lease granted, lease expired, stale lease fenced,
// range merged — living next to the assembled journals in the
// checkpoint directory. A coordinator killed mid-fleet replays the
// ledger on restart (see recoverLocked in coordinator.go): merged
// ranges are re-verified against their assembly files and stay done,
// every unmerged range returns to the pending queue, and the lease
// sequence continues where it left off so stale lease IDs from the
// previous incarnation can never collide with fresh grants — they fall
// through to the existing 410 fence and the workers holding them simply
// drop their ranges and lease again.
//
// File layout (Dir/ledger.cwl), an internal/framelog log:
//
//	file  := "cwled2\n" frame*
//	frame := uvarint(len(payload)) u64le(fnv1a(payload)) payload
//
// where payload is one JSON-encoded ledgerEvent. The framing is the
// visit journals', with the same torn-tail guarantee: a crash at any
// byte leaves a prefix of fully checksummed frames, scanning stops at
// the first torn or corrupt frame, and a reopening writer truncates
// that tail before appending. Events are fsynced as they are written —
// the ledger records control-plane transitions (per lease, per range),
// not per-visit data, so the sync cost is negligible next to a crawl.
//
// A file under any other magic — including the hex-line "cwled1\n"
// ledgers of earlier builds — is refused, never read as empty: an empty
// ledger means a fresh fleet, and a fresh fleet wipes the assembly
// directories.
//
// The ledger is advisory where it can be and authoritative only where
// it must: merge events name the ranges whose assembly files should
// verify, but recovery re-checks every candidate file with
// campaign.CheckJournal (and also probes files that have no merge
// event, covering a crash between the rename and the ledger append),
// so a lost or lying ledger line degrades to re-crawling a range, never
// to trusting a bad journal.

// ledgerName is the ledger's file name inside the assembly dir.
const ledgerName = "ledger.cwl"

// ledgerMagic identifies (and versions) ledger files.
const ledgerMagic = "cwled2\n"

// maxLedgerEvent bounds one event's JSON; events are a few hundred
// bytes. An event over it (say, an absurd worker name from a lease
// request) fails its append and latches the ledger instead of writing
// a frame that every later scan would stop at.
const maxLedgerEvent = 1 << 20

// Ledger event kinds.
const (
	evStart  = "start"  // coordinator (re)started: incarnation + fleet identity
	evGrant  = "grant"  // lease granted: seq, lease ID, worker, range
	evExpire = "expire" // lease missed its TTL: range back to pending
	evFence  = "fence"  // request under a stale/unknown lease refused (410)
	evMerge  = "merge"  // shipped journal validated and renamed into place
)

// ledgerEvent is one ledger line. Shard/Lo/Hi deliberately lack
// omitempty: shard 0 and lo 0 are meaningful values.
type ledgerEvent struct {
	Ev     string `json:"ev"`
	Inc    int    `json:"inc,omitempty"`    // start: incarnation (1-based)
	Fleet  uint64 `json:"fleet,omitempty"`  // start: fleetHash of the spec set
	Seq    int    `json:"seq,omitempty"`    // grant: lease sequence number
	Lease  string `json:"lease,omitempty"`  // grant/expire/fence/merge
	Worker string `json:"worker,omitempty"` // grant
	Label  string `json:"label,omitempty"`  // grant/expire/merge
	Shard  int    `json:"shard"`
	Lo     int    `json:"lo"`
	Hi     int    `json:"hi"`
}

// fleetHash folds the spec set into one identity value, stored in every
// start event: a ledger must never be replayed by a coordinator
// configured for different campaigns (other labels, another universe,
// another shard partitioning) — that coordinator would re-queue ranges
// that do not exist or trust merges that cover the wrong targets.
func fleetHash(specs []Spec) uint64 {
	h := xrand.Hash64("cookiewalk-fleet-ledger")
	for _, s := range specs {
		h = xrand.Mix64(h, xrand.Hash64(s.Label))
		h = xrand.Mix64(h, uint64(s.Targets))
		h = xrand.Mix64(h, s.TargetsHash)
		h = xrand.Mix64(h, uint64(s.Shards))
	}
	return h
}

// ledger appends checksummed events to the on-disk log. All calls
// happen under the coordinator's mutex. The first append failure
// latches: the ledger goes dead (recorded in err) and the fleet keeps
// running without durability — a restart then recovers from the
// assembly files alone, which is slower (unrecorded merges re-verify
// as done only via the file probe) but never wrong.
type ledger struct {
	w   *framelog.Writer
	err error
}

// openLedger opens (or creates) the ledger at path and returns every
// valid event already recorded. An existing file is scanned first and
// truncated to its last valid frame, so appends always extend a
// consistent prefix; a foreign file is refused with an error naming it.
func openLedger(path string) (*ledger, []ledgerEvent, error) {
	var events []ledgerEvent
	w, err := framelog.Open(path, ledgerMagic, maxLedgerEvent, func(p []byte) bool {
		var ev ledgerEvent
		if json.Unmarshal(p, &ev) != nil {
			return false
		}
		events = append(events, ev)
		return true
	})
	if err != nil {
		return nil, nil, err
	}
	return &ledger{w: w}, events, nil
}

// append frames, writes and fsyncs one event. After the first failure
// every later call returns the latched error without touching the file.
func (l *ledger) append(ev ledgerEvent) error {
	if l.err != nil {
		return l.err
	}
	if l.w == nil {
		l.err = errors.New("dist: ledger: closed")
		return l.err
	}
	payload, err := json.Marshal(ev)
	if err == nil {
		if err = l.w.Append(payload); err == nil {
			err = l.w.Sync()
		}
	}
	if err != nil {
		l.err = fmt.Errorf("dist: ledger: %w", err)
		return l.err
	}
	return nil
}

// close fsyncs and closes the ledger file. Safe to call after a
// latched failure (the close error is reported but state was already
// degraded).
func (l *ledger) close() error {
	if l.w == nil {
		return nil
	}
	err := l.w.Close()
	l.w = nil
	if l.err == nil && err != nil {
		l.err = err
	}
	return err
}
