package platform

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"edgeauction/internal/core"
	"edgeauction/internal/obs"
)

func walRecord(t int, hash string) *AuditRecord {
	return &AuditRecord{
		T:      t,
		Demand: []int{2, 1},
		Bids: []AuditBid{
			{Bidder: 1, Alt: 1, Price: 20, Covers: []int{0, 1}, Units: 1},
			{Bidder: 2, Alt: 1, Price: 15, Covers: []int{0}, Units: 2},
		},
		Awards:     []WireAward{{Bidder: 1, Alt: 1, Payment: 25}},
		SocialCost: 20,
		Capacity:   map[int]int{1: 10, 2: 10},
		StateHash:  hash,
	}
}

// TestReadAuditTruncatedTail is the regression test for the crash-cut
// bug: a torn final record must yield every complete record plus
// ErrTruncated, not nil-and-error.
func TestReadAuditTruncatedTail(t *testing.T) {
	t.Parallel()
	var buf bytes.Buffer
	w, err := CreateWAL(filepath.Join(t.TempDir(), "w.wal"), false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if err := w.Append(walRecord(i, "")); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(w.Path())
	if err != nil {
		t.Fatal(err)
	}
	buf.Write(data[:len(data)-25]) // cut record 3 mid-write

	recs, err := ReadAudit(&buf)
	if !errors.Is(err, obs.ErrTruncated) {
		t.Fatalf("ReadAudit on torn log: err %v, want ErrTruncated", err)
	}
	if len(recs) != 2 {
		t.Fatalf("recovered %d records before the torn tail, want 2", len(recs))
	}
	for i, rec := range recs {
		if rec.T != i+1 {
			t.Errorf("record %d has round %d, want %d", i, rec.T, i+1)
		}
	}

	// A malformed record with complete records AFTER it is corruption, not
	// a crash cut: the prefix comes back with a hard (non-truncation) error.
	mid := string(data[:bytes.IndexByte(data, '\n')+1]) + "{garbage}\n" + string(data[:bytes.IndexByte(data, '\n')+1])
	recs, err = ReadAudit(strings.NewReader(mid))
	if err == nil || errors.Is(err, obs.ErrTruncated) {
		t.Fatalf("mid-stream corruption: err %v, want hard parse error", err)
	}
	if len(recs) != 1 {
		t.Errorf("mid-stream corruption recovered %d records, want the 1-record prefix", len(recs))
	}
}

// TestWALRoundTrip appends records through the WAL and reads them back
// bit-exactly, logical timestamps included.
func TestWALRoundTrip(t *testing.T) {
	t.Parallel()
	path := filepath.Join(t.TempDir(), "round.wal")
	w, err := CreateWAL(path, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(walRecord(1, "abc")); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(walRecord(2, "def")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := ReadAudit(f)
	if err != nil {
		t.Fatalf("ReadAudit: %v", err)
	}
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2", len(recs))
	}
	for i, rec := range recs {
		if rec.Kind != AuditKind {
			t.Errorf("record %d kind %q", i, rec.Kind)
		}
		if rec.UnixMillis != int64(rec.T) {
			t.Errorf("record %d: UnixMillis %d, want logical clock %d", i, rec.UnixMillis, rec.T)
		}
		if rec.Capacity[1] != 10 {
			t.Errorf("record %d lost its capacity map: %v", i, rec.Capacity)
		}
	}
	if recs[1].StateHash != "def" {
		t.Errorf("record 2 state hash %q", recs[1].StateHash)
	}
}

// TestAuditClockInjection: with an injected logical clock, two audits of
// the same rounds are byte-identical; with the default wall clock they
// carry real timestamps.
func TestAuditClockInjection(t *testing.T) {
	t.Parallel()
	run := func() []byte {
		var buf bytes.Buffer
		a := NewAudit(&buf).WithClock(LogicalClock)
		for i := 1; i <= 3; i++ {
			if err := a.record(walRecord(i, "")); err != nil {
				t.Fatal(err)
			}
		}
		return buf.Bytes()
	}
	first, second := run(), run()
	if !bytes.Equal(first, second) {
		t.Errorf("logical-clock audit logs differ between identical runs")
	}

	var wall bytes.Buffer
	if err := NewAudit(&wall).record(walRecord(1, "")); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadAudit(bytes.NewReader(wall.Bytes()))
	if err != nil || len(recs) != 1 {
		t.Fatalf("ReadAudit: %v (%d records)", err, len(recs))
	}
	if recs[0].UnixMillis <= 1e12 {
		t.Errorf("default clock stamped %d, want wall-clock millis", recs[0].UnixMillis)
	}
}

// TestSnapshotWriteLoad round-trips a checkpoint and proves corrupt
// snapshots are skipped in favor of older valid ones.
func TestSnapshotWriteLoad(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()

	snap, err := LoadLatestSnapshot(dir)
	if err != nil || snap != nil {
		t.Fatalf("empty dir: snap %v err %v, want nil/nil", snap, err)
	}

	m := core.NewMSOA(core.MSOAConfig{Capacity: map[int]int{1: 4}, Options: core.Options{Parallelism: 1}})
	ins := &core.Instance{Demand: []int{1}, Bids: []core.Bid{
		{Bidder: 1, Alt: 1, Price: 10, TrueCost: 10, Covers: []int{0}, Units: 1},
		{Bidder: 2, Alt: 1, Price: 12, TrueCost: 12, Covers: []int{0}, Units: 1},
	}}
	if res := m.RunRound(core.Round{T: 1, Instance: ins}); res.Err != nil {
		t.Fatalf("seed round: %v", res.Err)
	}
	st := m.Snapshot()
	if _, err := WriteSnapshot(dir, 1, st); err != nil {
		t.Fatal(err)
	}
	if res := m.RunRound(core.Round{T: 2, Instance: ins}); res.Err != nil {
		t.Fatalf("seed round 2: %v", res.Err)
	}
	st2 := m.Snapshot()
	path2, err := WriteSnapshot(dir, 2, st2)
	if err != nil {
		t.Fatal(err)
	}

	snap, err = LoadLatestSnapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	if snap == nil || snap.Round != 2 || !snap.State.Equal(st2) {
		t.Fatalf("loaded snapshot %+v, want round 2 state", snap)
	}

	// Corrupt the newest snapshot: loading falls back to round 1.
	if err := os.WriteFile(path2, []byte(`{"kind":"edgeauction-snapshot","round":2,"state":{"summary":{}},"hash":"bogus"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	snap, err = LoadLatestSnapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	if snap == nil || snap.Round != 1 || !snap.State.Equal(st) {
		t.Fatalf("corrupt-fallback loaded %+v, want round 1 state", snap)
	}
}

// TestRecoverHashMismatch: a WAL whose state_hash does not describe its
// own records must be rejected, not silently resumed from.
func TestRecoverHashMismatch(t *testing.T) {
	t.Parallel()
	path := filepath.Join(t.TempDir(), "bad.wal")
	w, err := CreateWAL(path, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(walRecord(1, "0000000000000000000000000000000000000000000000000000000000000000")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Recover(path, "", core.MSOAConfig{Options: core.Options{Parallelism: 1}}); err == nil {
		t.Fatalf("Recover accepted a WAL with a lying state hash")
	}
}

// TestWALRecordsFollowRegistration registers an agent between two
// WAL-backed rounds: the second record carries both agents' capacities,
// and the first, already handed to the audit sink, still shows only the
// first agent's.
func TestWALRecordsFollowRegistration(t *testing.T) {
	path := filepath.Join(t.TempDir(), "reg.wal")
	w, err := CreateWAL(path, false)
	if err != nil {
		t.Fatal(err)
	}
	var recs []*AuditRecord
	srv := startServer(t, ServerConfig{
		BidDeadline: 5 * time.Second,
		WAL:         w,
		Audit:       NewAuditSink(func(rec *AuditRecord) error { recs = append(recs, rec); return nil }),
	})
	dialAgent(t, srv.Addr(), AgentConfig{ID: 1, Capacity: 5, Policy: coveringPolicy(10, 2)})
	waitCond(t, "agent 1 registered", func() bool { return srv.AgentCount() == 1 })
	if _, err := srv.RunRound([]int{2}, nil); err != nil {
		t.Fatal(err)
	}
	dialAgent(t, srv.Addr(), AgentConfig{ID: 2, Capacity: 7, Policy: coveringPolicy(12, 2)})
	waitCond(t, "agent 2 registered", func() bool { return srv.AgentCount() == 2 })
	if _, err := srv.RunRound([]int{2}, nil); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	logged, err := ReadAudit(f)
	if err != nil {
		t.Fatalf("ReadAudit: %v", err)
	}
	want := []string{"map[1:5]", "map[1:5 2:7]"}
	if len(logged) != 2 || len(recs) != 2 {
		t.Fatalf("got %d logged and %d sunk records, want 2 each", len(logged), len(recs))
	}
	for i := range want {
		if got := fmt.Sprint(logged[i].Capacity); got != want[i] {
			t.Errorf("logged record %d capacity %s, want %s", i, got, want[i])
		}
		if got := fmt.Sprint(recs[i].Capacity); got != want[i] {
			t.Errorf("sunk record %d capacity %s, want %s", i, got, want[i])
		}
	}
}
