package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"

	"edgeauction/internal/core"
	"edgeauction/internal/platform"
)

// verify is the correctness gate. It feeds the run's rounds, in order, to a
// fresh core.MSOA with the same configuration, and marks every round whose
// awards, payments, social cost or feasibility differ from what the SUT
// sent. On a WAL run it reads the log back with platform.ReadAudit: the
// record count and every state_hash must match the reference. It returns
// whether the final state hashes (and the WAL) agree.
//
// With rp non-nil the pass doubles as the layer replay: each timed round is
// rebuilt from its exact frames through the layers' public functions, with
// a span around every call.
func verify(r *serverRun, rp *replayer) (bool, error) {
	tr := r.opts.tr
	ref := core.NewMSOA(core.MSOAConfig{Capacity: copyCapacity(tr.capacity)})
	var wal *walReader
	if r.walPath != "" {
		f, err := os.Open(r.walPath)
		if err != nil {
			return false, fmt.Errorf("open WAL: %w", err)
		}
		defer f.Close()
		wal = &walReader{r: bufio.NewReaderSize(f, 1<<20)}
	}
	ok := true
	for i := range r.rounds {
		rec := &r.rounds[i]
		replay := rp != nil && i >= r.measuredFrom
		ins := tr.ins
		if replay {
			var err error
			if ins, err = rp.gather(rec.t); err != nil {
				return false, err
			}
		}
		var res *core.RoundResult
		rp.timed(replay, rec.t, layerMSOA, func() {
			res = ref.RunRound(core.Round{T: rec.t, Instance: ins})
		})
		if replay {
			rp.excluded += int64(len(res.Excluded))
		}
		want := expectedAwards(res, ins)
		if rec.err != nil || !sameOutcome(want, res, rec) {
			rec.mismatch = true
		}
		if wal != nil {
			var hash string
			rp.timed(replay, rec.t, layerStateHash, func() { hash = ref.Snapshot().Hash() })
			got, err := wal.next()
			if err != nil || got.T != rec.t || got.StateHash != hash {
				rec.mismatch = true
				ok = false
			}
			if replay {
				if err := rp.walAppend(rec.t, ins, want, res, hash, tr.capacity); err != nil {
					return false, err
				}
			}
		}
		if replay {
			if err := rp.encodeResult(rec.t, want, res); err != nil {
				return false, err
			}
		}
	}
	if wal != nil {
		if _, err := wal.next(); !errors.Is(err, io.EOF) {
			ok = false // the WAL holds more records than rounds cleared
		}
	}
	_, st := r.srv.SnapshotState()
	if st == nil || st.Hash() != ref.Snapshot().Hash() {
		ok = false
	}
	if !ok && len(r.rounds) > 0 {
		r.rounds[len(r.rounds)-1].mismatch = true
	}
	return ok, nil
}

// expectedAwards lists the reference's winners in the order the platform
// announces them.
func expectedAwards(res *core.RoundResult, ins *core.Instance) []platform.WireAward {
	if res.Err != nil {
		return nil
	}
	var out []platform.WireAward
	for _, w := range res.Outcome.Winners {
		b := &ins.Bids[w]
		out = append(out, platform.WireAward{Bidder: b.Bidder, Alt: b.Alt, Payment: res.Outcome.Payments[w]})
	}
	return out
}

// sameOutcome compares the reference outcome with what the SUT sent,
// bit for bit.
func sameOutcome(want []platform.WireAward, res *core.RoundResult, rec *roundRec) bool {
	if res.Err != nil || rec.infeasible {
		return (res.Err != nil) == rec.infeasible
	}
	if res.Outcome.SocialCost != rec.socialCost || len(want) != len(rec.awards) {
		return false
	}
	for k := range want {
		if want[k] != rec.awards[k] {
			return false
		}
	}
	return true
}

func copyCapacity(m map[int]int) map[int]int {
	out := make(map[int]int, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// walReader yields a WAL's records one at a time, each parsed with
// platform.ReadAudit, so a long log is never held in memory whole.
type walReader struct {
	r *bufio.Reader
}

func (w *walReader) next() (*platform.AuditRecord, error) {
	for {
		line, err := w.r.ReadBytes('\n')
		if len(bytes.TrimSpace(line)) == 0 {
			if err == nil {
				continue
			}
			return nil, err
		}
		recs, perr := platform.ReadAudit(bytes.NewReader(line))
		if perr != nil {
			return nil, perr
		}
		if len(recs) != 1 {
			return nil, fmt.Errorf("WAL line held %d records", len(recs))
		}
		return recs[0], nil
	}
}
