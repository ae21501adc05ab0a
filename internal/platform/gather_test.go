package platform

import (
	"encoding/json"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"
)

// batchSession is a raw multiplexed session for the gather tests: it
// registers ids first..first+count-1 and answers every announce with one
// pre-built Multi batch.
type batchSession struct {
	enc   *json.Encoder
	dec   *json.Decoder
	batch []AgentBids
}

func dialBatchSession(t *testing.T, addr string, first, count int) *batchSession {
	t.Helper()
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = raw.Close() })
	bs := &batchSession{enc: json.NewEncoder(raw), dec: json.NewDecoder(raw)}
	if err := bs.enc.Encode(Envelope{Type: TypeHello, Hello: &HelloMsg{AgentID: first, Count: count}}); err != nil {
		t.Fatal(err)
	}
	var welcome Envelope
	if err := bs.dec.Decode(&welcome); err != nil || welcome.Type != TypeWelcome {
		t.Fatalf("welcome = %+v, err %v", welcome, err)
	}
	for id := first; id < first+count; id++ {
		ab := AgentBids{Agent: id}
		for alt := 0; alt < 1+id%3; alt++ {
			ab.Bids = append(ab.Bids, WireBid{Alt: alt, Price: float64(10 + (7*id+alt)%23), Covers: []int{(id + alt) % 2}, Units: 1})
		}
		bs.batch = append(bs.batch, ab)
	}
	return bs
}

// awaitAnnounce reads up to the next announce and returns its round.
func (bs *batchSession) awaitAnnounce(t *testing.T) int {
	t.Helper()
	for {
		var env Envelope
		if err := bs.dec.Decode(&env); err != nil {
			t.Errorf("waiting for announce: %v", err)
			return 0
		}
		if env.Type == TypeAnnounce {
			return env.Announce.T
		}
	}
}

func (bs *batchSession) bids() int64 {
	n := 0
	for _, ab := range bs.batch {
		n += len(ab.Bids)
	}
	return int64(n)
}

func (bs *batchSession) send(t *testing.T, round int) {
	if err := bs.enc.Encode(Envelope{Type: TypeBid, Bid: &BidSubmitMsg{T: round, Multi: bs.batch}}); err != nil {
		t.Errorf("send batch: %v", err)
	}
}

// TestMultiplexedBatchesLandAsRuns races two multiplexed sessions' bid
// batches into a round, first one session first, then the other, then
// both at once. Each batch takes the gather lock once, so it lands as one
// ascending run: every round must assemble the canonical instance from at
// most two arrival runs, disjoint, which the ingest buffer merges whole.
func TestMultiplexedBatchesLandAsRuns(t *testing.T) {
	var mu sync.Mutex
	var records []*AuditRecord
	srv := startServer(t, ServerConfig{
		BidDeadline: 10 * time.Second,
		Audit: NewAuditSink(func(rec *AuditRecord) error {
			mu.Lock()
			records = append(records, rec)
			mu.Unlock()
			return nil
		}),
	})
	low := dialBatchSession(t, srv.Addr(), 1, 500)
	high := dialBatchSession(t, srv.Addr(), 501, 500)

	var want []AuditBid // canonical: ascending agent, then alt
	for _, bs := range []*batchSession{low, high} {
		for _, ab := range bs.batch {
			for _, wb := range ab.Bids {
				want = append(want, AuditBid{Bidder: ab.Agent, Alt: wb.Alt, Price: wb.Price, Covers: wb.Covers, Units: wb.Units})
			}
		}
	}
	bids := srv.Metrics().Counter("platform_bids_total")
	inOrder := func(first, second *batchSession) func(t *testing.T, round int) {
		return func(t *testing.T, round int) {
			before := bids.Value()
			first.send(t, round)
			for deadline := time.Now().Add(5 * time.Second); bids.Value()-before < first.bids() && time.Now().Before(deadline); {
				time.Sleep(time.Millisecond)
			}
			second.send(t, round)
		}
	}
	atOnce := func(t *testing.T, round int) {
		var wg sync.WaitGroup
		for _, bs := range []*batchSession{low, high} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				bs.send(t, round)
			}()
		}
		wg.Wait()
	}
	type order struct {
		name string
		send func(t *testing.T, round int)
	}
	orders := []order{{"low first", inOrder(low, high)}, {"high first", inOrder(high, low)}}
	// Racing batches overlap in only some rounds; repeat the race.
	for i := 0; i < 10; i++ {
		orders = append(orders, order{"at once", atOnce})
	}
	for _, tc := range orders {
		done := make(chan error, 1)
		go func() {
			_, err := srv.RunRound([]int{3, 2}, nil)
			done <- err
		}()
		round := low.awaitAnnounce(t)
		if high.awaitAnnounce(t) != round {
			t.Fatalf("%s: sessions announced different rounds", tc.name)
		}
		tc.send(t, round)
		if err := <-done; err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}

		mu.Lock()
		rec := records[len(records)-1]
		mu.Unlock()
		if rec.T != round || !reflect.DeepEqual(rec.Bids, want) {
			t.Fatalf("%s: round %d assembled %+v, want the canonical %+v", tc.name, rec.T, rec.Bids, want)
		}
		srv.gmu.Lock()
		runs := srv.freeRounds[len(srv.freeRounds)-1].buf.Runs()
		srv.gmu.Unlock()
		if runs > 2 {
			t.Fatalf("%s: round %d gathered %d arrival runs from two batches", tc.name, round, runs)
		}
	}
}
