package platform

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"edgeauction/internal/core"
	"edgeauction/internal/obs"
)

// SnapshotKind is the kind tag on snapshot files.
const SnapshotKind = "edgeauction-snapshot"

// Scripted crash points inside Server.RunRound, in execution order. The
// names describe what the outside world has seen when the process dies
// there, which is what decides how much a recovery can (and must) get
// back:
//
//   - CrashMidGather: the round was announced but no record was written.
//     The WAL ends at round t-1; recovery re-runs round t from scratch.
//   - CrashPreAnnounce: the winner set was selected and the record
//     durably appended, but no bidder heard the result. The WAL ends at
//     round t; recovery resumes at t+1 with the logged state.
//   - CrashPostAnnounce: bidders saw their awards. Because the WAL is
//     flushed BEFORE the announce, the round they saw is already durable
//     — this is the ordering that makes announced awards survivable.
const (
	CrashMidGather    = "mid-gather"
	CrashPreAnnounce  = "pre-announce"
	CrashPostAnnounce = "post-announce"
)

// ErrCrashed marks a simulated process kill injected through
// FaultInjection.Crash. RunRound errors wrap it so harnesses can tell a
// scripted crash from a real operational fault.
var ErrCrashed = errors.New("simulated crash")

// LogicalClock timestamps audit/WAL records with the round number itself
// instead of wall-clock time, making identically-seeded runs produce
// byte-identical logs (which the soak gates compare with cmp(1)).
func LogicalClock(t int) int64 { return int64(t) }

// WAL is the platform's write-ahead log: one AuditRecord JSON line per
// cleared round, appended and flushed to the OS BEFORE the round's awards
// are announced to bidders, so no externalized round can be lost to a
// crash. Records carry the capacity/window maps in force and the
// post-round state hash, which makes Recover's suffix replay exact.
// Append is serialized and safe for concurrent use.
type WAL struct {
	mu sync.Mutex
	f  *os.File
	// w's sticky error keeps a record from following a torn one: after a
	// failed write, every later Append fails too.
	w     *bufio.Writer
	enc   recordEncoder
	fsync bool
	path  string
}

// CreateWAL opens (creating or appending to) a write-ahead log at path.
// With fsync set, every append also forces the file to stable storage —
// durable against power loss, not just process death — at a per-round
// fsync cost.
func CreateWAL(path string, fsync bool) (*WAL, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("platform: open WAL %s: %w", path, err)
	}
	return &WAL{f: f, w: bufio.NewWriter(f), fsync: fsync, path: path}, nil
}

// Path returns the log's file path.
func (l *WAL) Path() string { return l.path }

// Append durably logs one round record: stamp, encode, flush to the OS,
// and (when enabled) fsync. The record's UnixMillis is stamped with the
// logical clock when unset — WAL bytes must be a pure function of the
// round sequence or the recovery hash check and the soak byte-compare
// would both be meaningless.
func (l *WAL) Append(rec *AuditRecord) error {
	rec.Kind = AuditKind
	if rec.UnixMillis == 0 {
		rec.UnixMillis = LogicalClock(rec.T)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	line, err := l.enc.encode(rec)
	if err != nil {
		return fmt.Errorf("platform: encode WAL record %d: %w", rec.T, err)
	}
	if _, err := l.w.Write(line); err != nil {
		return fmt.Errorf("platform: write WAL record %d: %w", rec.T, err)
	}
	if err := l.w.Flush(); err != nil {
		return fmt.Errorf("platform: flush WAL: %w", err)
	}
	if l.fsync {
		if err := l.f.Sync(); err != nil {
			return fmt.Errorf("platform: fsync WAL: %w", err)
		}
	}
	return nil
}

// Close flushes, syncs, and closes the log.
func (l *WAL) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.w.Flush(); err != nil {
		return fmt.Errorf("platform: flush WAL: %w", err)
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("platform: fsync WAL: %w", err)
	}
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("platform: close WAL: %w", err)
	}
	return nil
}

// SnapshotFile is one durable checkpoint of the platform's mechanism
// state, written atomically (tmp + rename) by WriteSnapshot.
type SnapshotFile struct {
	// Kind is always SnapshotKind.
	Kind string `json:"kind"`
	// Round is the last platform round consumed when the snapshot was
	// taken (aborted rounds consume round numbers without producing WAL
	// records, so this can exceed the mechanism's processed-round count).
	Round int `json:"round"`
	// State is the mechanism's cross-round state (ψ, χ, summary).
	State *core.MSOAState `json:"state"`
	// Hash is State.Hash(), stored so a torn or bit-rotted snapshot is
	// detected and skipped at load time.
	Hash string `json:"hash"`
}

// WriteSnapshot atomically writes a checkpoint into dir (created if
// needed) as snapshot-<round>.json and returns the path. A crash during
// the write leaves at worst an orphaned .tmp file, never a half-written
// snapshot under the final name.
func WriteSnapshot(dir string, round int, st *core.MSOAState) (string, error) {
	if st == nil {
		st = &core.MSOAState{}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("platform: snapshot dir: %w", err)
	}
	snap := SnapshotFile{Kind: SnapshotKind, Round: round, State: st, Hash: st.Hash()}
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return "", fmt.Errorf("platform: marshal snapshot: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("snapshot-%08d.json", round))
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return "", fmt.Errorf("platform: write snapshot: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return "", fmt.Errorf("platform: commit snapshot: %w", err)
	}
	return path, nil
}

// LoadLatestSnapshot returns the newest hash-valid snapshot in dir, or
// (nil, nil) when the directory is empty, absent, or holds only invalid
// snapshots — snapshots are an optimization over full-WAL replay, so a
// corrupt one is skipped (older valid ones are tried next), never fatal.
func LoadLatestSnapshot(dir string) (*SnapshotFile, error) {
	entries, err := filepath.Glob(filepath.Join(dir, "snapshot-*.json"))
	if err != nil {
		return nil, fmt.Errorf("platform: list snapshots: %w", err)
	}
	sort.Sort(sort.Reverse(sort.StringSlice(entries)))
	for _, path := range entries {
		data, err := os.ReadFile(path)
		if err != nil {
			continue
		}
		var snap SnapshotFile
		if err := json.Unmarshal(data, &snap); err != nil {
			continue
		}
		if snap.Kind != SnapshotKind || snap.State == nil || snap.Hash != snap.State.Hash() {
			continue
		}
		return &snap, nil
	}
	return nil, nil
}

// RecoveredState is the outcome of Recover: everything a restarted
// platform needs to continue the auction exactly where the dead process
// left it.
type RecoveredState struct {
	// State is the mechanism state after replaying the WAL suffix.
	State *core.MSOAState `json:"state"`
	// NextRound is the first round the restarted platform should run.
	NextRound int `json:"next_round"`
	// SnapshotRound is the checkpoint the replay started from (0 when
	// recovery replayed the whole WAL).
	SnapshotRound int `json:"snapshot_round"`
	// Replayed counts WAL records re-run through the mechanism.
	Replayed int `json:"replayed"`
	// Truncated reports that the WAL ended in a torn record (the usual
	// crash signature); the complete prefix was recovered.
	Truncated bool `json:"truncated,omitempty"`
	// Hash is State.Hash(), matching the last replayed record's
	// state_hash field.
	Hash string `json:"hash"`
}

// Recover rebuilds platform state from the latest valid snapshot plus the
// WAL suffix, replaying each logged round through a shadow mechanism (the
// same replay the chaos auditor runs online) and asserting after every
// record that the replayed state reaches the hash the live process logged.
// A hash mismatch is a hard error: it means the WAL does not describe the
// state it claims, and resuming from it would silently corrupt ψ and every
// future payment.
//
// cfg plays the role of ServerConfig.Auction; its Capacity/Windows maps
// are not mutated (replay works on copies). A missing WAL file and a
// missing/empty snapshot dir are both fine — recovery from nothing is a
// fresh start at round 1.
func Recover(walPath, snapshotDir string, cfg core.MSOAConfig) (*RecoveredState, error) {
	var snap *SnapshotFile
	if snapshotDir != "" {
		var err error
		if snap, err = LoadLatestSnapshot(snapshotDir); err != nil {
			return nil, err
		}
	}

	var records []*AuditRecord
	truncated := false
	if walPath != "" {
		f, err := os.Open(walPath)
		switch {
		case errors.Is(err, os.ErrNotExist):
			// No WAL yet: first boot, or a crash before the first append.
		case err != nil:
			return nil, fmt.Errorf("platform: open WAL %s: %w", walPath, err)
		default:
			records, err = ReadAudit(f)
			closeErr := f.Close()
			if err != nil {
				if !errors.Is(err, obs.ErrTruncated) {
					return nil, fmt.Errorf("platform: recover WAL: %w", err)
				}
				// Torn tail: the crash cut a record mid-write. The complete
				// prefix is exactly the set of rounds that were externalized.
				truncated = true
			}
			if closeErr != nil {
				return nil, fmt.Errorf("platform: close WAL: %w", closeErr)
			}
		}
	}

	// Replay on copies: the caller's maps keep learning live
	// registrations and must not see replay-time mutations.
	rcfg := cfg
	rcfg.Capacity = copyIntMap(cfg.Capacity)
	rcfg.Windows = copyWindowMap(cfg.Windows)
	rcfg.Options.Tracer = nil

	var snapState *core.MSOAState
	snapRound := 0
	if snap != nil {
		snapState = snap.State
		snapRound = snap.Round
	}
	m := core.RestoreMSOA(rcfg, snapState)

	rs := &RecoveredState{SnapshotRound: snapRound, NextRound: snapRound + 1, Truncated: truncated}
	for _, rec := range records {
		if rec.T <= snapRound {
			// Already folded into the snapshot.
			if rec.T+1 > rs.NextRound {
				rs.NextRound = rec.T + 1
			}
			continue
		}
		ReplayRecord(m, rec, rcfg.Capacity, rcfg.Windows)
		rs.Replayed++
		if rec.T+1 > rs.NextRound {
			rs.NextRound = rec.T + 1
		}
		if rec.StateHash != "" {
			if got := m.Snapshot().Hash(); got != rec.StateHash {
				return nil, fmt.Errorf("platform: recovery diverged at round %d: replayed state hash %s, WAL logged %s", rec.T, got, rec.StateHash)
			}
		}
	}
	rs.State = m.Snapshot()
	rs.Hash = rs.State.Hash()
	return rs, nil
}

// ReplayRecord re-runs one audit/WAL record through the shadow mechanism
// m. capacity/windows, when non-nil, must be the live maps backing m's
// config: a record carrying its own maps (WAL records do) replaces their
// contents first, so the replayed round filters candidates under exactly
// the registrations the live round saw. Records without maps (plain audit
// sink records) leave the caller's maps alone — the chaos auditor learns
// them from AgentJoin trace events instead.
func ReplayRecord(m *core.MSOA, rec *AuditRecord, capacity map[int]int, windows map[int]core.BidderWindow) *core.RoundResult {
	if rec.Capacity != nil && capacity != nil {
		for k := range capacity {
			delete(capacity, k)
		}
		for k, v := range rec.Capacity {
			capacity[k] = v
		}
	}
	if rec.Windows != nil && windows != nil {
		for k := range windows {
			delete(windows, k)
		}
		for k, v := range rec.Windows {
			windows[k] = v
		}
	}
	return m.RunRound(core.Round{T: rec.T, Instance: rec.Instance()})
}

func copyIntMap(m map[int]int) map[int]int {
	out := make(map[int]int, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

func copyWindowMap(m map[int]core.BidderWindow) map[int]core.BidderWindow {
	out := make(map[int]core.BidderWindow, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}
