package core

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestIngestBufferMatchesHandBuiltInstance proves the batch-ingest path
// is order- and shard-insensitive: bids added in any order through any
// shard count assemble into the same canonical instance, and the built
// instance clears identically to the hand-built one.
func TestIngestBufferMatchesHandBuiltInstance(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	demand := []int{3, 2, 4, 1}
	var bids []Bid
	for i := 1; i <= 9; i++ {
		for alt := 0; alt < 2; alt++ {
			covers := []int{rng.Intn(len(demand))}
			if rng.Intn(2) == 0 {
				covers = append(covers, (covers[0]+1)%len(demand))
			}
			bids = append(bids, Bid{
				Bidder: i, Alt: alt, Price: 1 + float64(rng.Intn(50)),
				Covers: covers, Units: 1 + rng.Intn(3),
			})
			bids[len(bids)-1].TrueCost = bids[len(bids)-1].Price
		}
	}
	want := &Instance{Demand: demand}
	for _, b := range bids {
		want.Bids = append(want.Bids, b.Clone())
	}
	sortBidsCanonical(want.Bids)
	wantRes := NewMSOA(MSOAConfig{}).RunRound(Round{T: 1, Instance: want})

	for _, shards := range []int{1, 2, 3, 8} {
		ib := NewIngestBuffer(shards)
		perm := rng.Perm(len(bids))
		ib.Reset(demand)
		for _, i := range perm {
			b := bids[i]
			ib.Add(b.Bidder, b.Alt, b.Price, b.Covers, b.Units)
		}
		if ib.Len() != len(bids) {
			t.Fatalf("shards=%d: Len=%d, want %d", shards, ib.Len(), len(bids))
		}
		got := ib.Build()
		if !reflect.DeepEqual(got.Demand, want.Demand) || !reflect.DeepEqual(got.Bids, want.Bids) {
			t.Fatalf("shards=%d: assembled instance differs\n got %+v\nwant %+v", shards, got.Bids, want.Bids)
		}
		res := NewMSOA(MSOAConfig{}).RunRound(Round{T: 1, Instance: got})
		if res.Err != nil || wantRes.Err != nil {
			t.Fatalf("shards=%d: err %v vs %v", shards, res.Err, wantRes.Err)
		}
		if !reflect.DeepEqual(res.Outcome.Winners, wantRes.Outcome.Winners) ||
			!reflect.DeepEqual(res.Outcome.Payments, wantRes.Outcome.Payments) {
			t.Fatalf("shards=%d: outcome differs: %+v vs %+v", shards, res.Outcome, wantRes.Outcome)
		}
	}
}

func sortBidsCanonical(bids []Bid) {
	for i := 1; i < len(bids); i++ {
		for j := i; j > 0; j-- {
			a, b := bids[j-1], bids[j]
			if a.Bidder < b.Bidder || (a.Bidder == b.Bidder && a.Alt <= b.Alt) {
				break
			}
			bids[j-1], bids[j] = b, a
		}
	}
}

// TestIngestBufferReusesStorage asserts the satellite pooling claim: once
// a round shape has been seen, subsequent Reset/Add/Build cycles of the
// same shape perform zero allocations.
func TestIngestBufferReusesStorage(t *testing.T) {
	ib := NewIngestBuffer(4)
	demand := []int{2, 2, 2}
	covers := []int{0, 1}
	fill := func() {
		ib.Reset(demand)
		for id := 1; id <= 32; id++ {
			ib.Add(id, 0, float64(id), covers, 1)
		}
		_ = ib.Build()
	}
	fill() // reach the high-water mark
	if allocs := testing.AllocsPerRun(50, fill); allocs > 0 {
		t.Fatalf("steady-state ingest cycle allocates %.1f times per round, want 0", allocs)
	}
}

// TestIngestBufferAcrossRounds clears reverse-arrival ingest rounds
// through MSOA against the plain hand-built path across several rounds
// (ψ state must advance equally).
func TestIngestBufferAcrossRounds(t *testing.T) {
	cfg := MSOAConfig{Capacity: map[int]int{1: 3, 2: 3}}
	plain, batch := NewMSOA(cfg), NewMSOA(cfg)
	ib := NewIngestBuffer(2)
	for round := 1; round <= 4; round++ {
		demand := []int{round % 3, 1 + round%2}
		ins := &Instance{Demand: demand}
		ib.Reset(demand)
		for id := 2; id >= 1; id-- { // reverse order on purpose
			price := float64(5*id + round)
			ins.Bids = append(ins.Bids, Bid{Bidder: id, Alt: 0, Price: price, TrueCost: price, Covers: []int{0, 1}, Units: 2})
			ib.Add(id, 0, price, []int{0, 1}, 2)
		}
		sortBidsCanonical(ins.Bids)
		a := plain.RunRound(Round{T: round, Instance: ins})
		b := batch.RunRound(Round{T: round, Instance: ib.Build()})
		if (a.Err == nil) != (b.Err == nil) {
			t.Fatalf("round %d: err %v vs %v", round, a.Err, b.Err)
		}
		if a.Err == nil && !reflect.DeepEqual(a.Outcome.Payments, b.Outcome.Payments) {
			t.Fatalf("round %d: payments %v vs %v", round, a.Outcome.Payments, b.Outcome.Payments)
		}
	}
	if plain.Snapshot().Hash() != batch.Snapshot().Hash() {
		t.Fatal("state hashes diverge between plain and batch-ingest paths")
	}
}

// BenchmarkIngestBuffer times a fleet-10k round's ingest on a buffer
// reused across rounds, as the server reuses its own: "add" is Reset and
// Add of 10k one-bid agents (1–2 of 4 covers, arriving in id order),
// "build" the canonical Build of those bids.
func BenchmarkIngestBuffer(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	demand := []int{2, 1, 2, 1}
	bids := make([]Bid, 10000)
	for i := range bids {
		covers := rng.Perm(len(demand))[:1+rng.Intn(2)]
		bids[i] = Bid{Bidder: i + 1, Price: float64(100+rng.Intn(1900)) / 100, Covers: covers, Units: 1}
	}
	ib := NewIngestBuffer(8)
	add := func() {
		ib.Reset(demand)
		for i := range bids {
			bd := &bids[i]
			ib.Add(bd.Bidder, bd.Alt, bd.Price, bd.Covers, bd.Units)
		}
	}
	add()
	ib.Build()
	b.Run("add", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			add()
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(bids)), "ns/bid")
	})
	b.Run("build", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ib.Build()
		}
	})
}
