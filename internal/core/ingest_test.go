package core

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestIngestBufferMatchesHandBuiltInstance proves the batch-ingest path
// is order-insensitive: bids added in any order assemble into the same
// canonical instance, and the built instance clears identically to the
// hand-built one.
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

	for order := 0; order < 4; order++ {
		var ib IngestBuffer
		perm := rng.Perm(len(bids))
		ib.Reset(demand)
		for _, i := range perm {
			b := bids[i]
			ib.Add(b.Bidder, b.Alt, b.Price, b.Covers, b.Units)
		}
		if ib.Len() != len(bids) {
			t.Fatalf("order %d: Len=%d, want %d", order, ib.Len(), len(bids))
		}
		got := ib.Build()
		if !reflect.DeepEqual(got.Demand, want.Demand) || !reflect.DeepEqual(got.Bids, want.Bids) {
			t.Fatalf("order %d: assembled instance differs\n got %+v\nwant %+v", order, got.Bids, want.Bids)
		}
		res := NewMSOA(MSOAConfig{}).RunRound(Round{T: 1, Instance: got})
		if res.Err != nil || wantRes.Err != nil {
			t.Fatalf("order %d: err %v vs %v", order, res.Err, wantRes.Err)
		}
		if !reflect.DeepEqual(res.Outcome.Winners, wantRes.Outcome.Winners) ||
			!reflect.DeepEqual(res.Outcome.Payments, wantRes.Outcome.Payments) {
			t.Fatalf("order %d: outcome differs: %+v vs %+v", order, res.Outcome, wantRes.Outcome)
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

// ingestBids adds bids to ib in the given order on a fresh round and
// builds the instance.
func ingestBids(ib *IngestBuffer, demand []int, bids []Bid) *Instance {
	ib.Reset(demand)
	for i := range bids {
		b := &bids[i]
		ib.Add(b.Bidder, b.Alt, b.Price, b.Covers, b.Units)
	}
	return ib.Build()
}

// canonicalCopy returns bids stably sorted into canonical (Bidder, Alt)
// order, with TrueCost set to Price as Build sets it.
func canonicalCopy(bids []Bid) []Bid {
	out := make([]Bid, len(bids))
	for i, b := range bids {
		out[i] = b.Clone()
		out[i].TrueCost = out[i].Price
	}
	sortBidsCanonical(out)
	return out
}

// sessionRuns draws session-shaped traffic: sessions owning disjoint,
// ascending id ranges (some ids abstain), each agent listing 1–alts
// ascending alternatives, each session at least one bid. It returns each
// session's bids in order.
func sessionRuns(rng *rand.Rand, sessions, agents, alts int) [][]Bid {
	runs := make([][]Bid, sessions)
	id := 1
	for s := range runs {
		for a := 0; a < agents || len(runs[s]) == 0; a++ {
			id += 1 + rng.Intn(2)
			if rng.Intn(5) == 0 {
				continue // abstains
			}
			for alt := 0; alt < 1+rng.Intn(alts); alt++ {
				covers := rng.Perm(4)[:1+rng.Intn(2)]
				runs[s] = append(runs[s], Bid{
					Bidder: id, Alt: alt, Price: float64(1 + rng.Intn(99)), Covers: covers, Units: 1,
				})
			}
		}
	}
	return runs
}

// runOverlap classifies an arrival list by its maximal strictly
// ascending runs, by the quadratic definition independent of Build: it
// counts them, and reports them disjoint when every two runs' key ranges
// are strictly apart and interleaved when some run's first key falls
// strictly inside another run's range.
func runOverlap(bids []Bid) (n int, disjoint, interleaved bool) {
	less := func(p, b Bid) bool { return p.Bidder < b.Bidder || (p.Bidder == b.Bidder && p.Alt < b.Alt) }
	var runs [][2]Bid
	for i := 0; i < len(bids); {
		j := i + 1
		for j < len(bids) && less(bids[j-1], bids[j]) {
			j++
		}
		runs = append(runs, [2]Bid{bids[i], bids[j-1]})
		i = j
	}
	disjoint = true
	for x, r := range runs {
		for y, q := range runs {
			if x == y {
				continue
			}
			if x < y && !less(r[1], q[0]) && !less(q[1], r[0]) {
				disjoint = false
			}
			if less(r[0], q[0]) && less(q[0], r[1]) {
				interleaved = true
			}
		}
	}
	return len(runs), disjoint, interleaved
}

// TestIngestBufferRuns pins Build to a stable canonical sort
// (sortBidsCanonical) and its run cuts to the arrival shape. S session
// batches — disjoint ascending runs — arriving in order, reversed or
// shuffled must merge with at most S-1 run cuts, and none when the
// maximal runs are disjoint (two sessions in either order). Runs
// interleaved bid by bid, one agent's alternatives out of order,
// duplicate keys and shuffled bids must still equal the stable sort,
// duplicates in arrival order.
func TestIngestBufferRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	demand := []int{2, 1, 2, 1}
	var ib IngestBuffer
	check := func(name string, bids []Bid) {
		t.Helper()
		got := ingestBids(&ib, demand, bids)
		if want := canonicalCopy(bids); len(want)+len(got.Bids) > 0 && !reflect.DeepEqual(got.Bids, want) {
			t.Fatalf("%s: Build differs from the stable canonical sort\n got %+v\nwant %+v", name, got.Bids, want)
		}
		runs, disjoint, interleaved := runOverlap(bids)
		if ib.Runs() != runs {
			t.Fatalf("%s: Runs() = %d, want %d", name, ib.Runs(), runs)
		}
		if disjoint && ib.cuts != 0 {
			t.Fatalf("%s: %d run cuts on disjoint runs", name, ib.cuts)
		}
		if interleaved && ib.cuts == 0 {
			t.Fatalf("%s: interleaved runs merged without a cut", name)
		}
	}
	merged := func(name string, bids []Bid, maxCuts int) {
		t.Helper()
		check(name, bids)
		if ib.cuts > maxCuts {
			t.Fatalf("%s: %d run cuts, want at most %d", name, ib.cuts, maxCuts)
		}
	}
	merged("empty", nil, 0)
	for trial := 0; trial < 300; trial++ {
		sessions := 1 + rng.Intn(6)
		runs := sessionRuns(rng, sessions, 1+rng.Intn(20), 3)
		var inOrder, reversed, shuffled []Bid
		for s := range runs {
			inOrder = append(inOrder, runs[s]...)
			reversed = append(reversed, runs[len(runs)-1-s]...)
		}
		for _, s := range rng.Perm(len(runs)) {
			shuffled = append(shuffled, runs[s]...)
		}
		merged("sessions in order", inOrder, 0)
		merged("sessions reversed", reversed, 0)
		merged("sessions shuffled", shuffled, sessions-1)
		if sessions == 2 {
			merged("two sessions swapped", append(append([]Bid(nil), runs[1]...), runs[0]...), 0)
		}

		// Two halves of the agents interleaved bid by bid.
		half := len(inOrder) / 2
		var perBid []Bid
		for i := 0; i < half; i++ {
			perBid = append(perBid, inOrder[i], inOrder[half+i])
		}
		perBid = append(perBid, inOrder[2*half:]...)
		check("runs interleaved per bid", perBid)

		// One agent's alternatives out of order.
		flipped := append([]Bid(nil), inOrder...)
		for i := 1; i < len(flipped); i++ {
			if flipped[i].Bidder == flipped[i-1].Bidder {
				flipped[i], flipped[i-1] = flipped[i-1], flipped[i]
				check("alts out of order", flipped)
				break
			}
		}

		// A duplicate key, both copies kept in arrival order.
		dup := append([]Bid(nil), inOrder...)
		extra := dup[rng.Intn(len(dup))]
		extra.Price += 1000
		dup = append(dup, extra)
		check("duplicate key", dup)
		dup[len(dup)-1], dup[0] = dup[0], dup[len(dup)-1]
		check("duplicate key moved first", dup)

		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		check("bids shuffled", shuffled)
	}
}

// FuzzIngestBuild checks Build on arbitrary arrivals: it must equal the
// stable canonical sort, cut no run when the runs are disjoint, and cut
// some run when they interleave; and it must merge the session-shaped
// reordering of the same keys — distinct keys cut into k ascending
// batches and fed in a rotated order — with at most k-1 cuts.
func FuzzIngestBuild(f *testing.F) {
	f.Add([]byte{1, 0, 5, 1, 2, 0, 6, 2, 3, 1, 7, 1}, uint8(1), uint8(0))
	f.Add([]byte{9, 0, 5, 1, 2, 0, 6, 2, 9, 0, 7, 1, 4, 3, 2, 2}, uint8(3), uint8(2))
	f.Add([]byte{7, 2, 1, 1, 7, 1, 1, 1, 7, 0, 1, 1, 3, 0, 9, 2}, uint8(0xff), uint8(5))
	f.Add([]byte{1, 0, 0, 0, 5, 0, 0, 0, 3, 0, 0, 0, 4, 0, 0, 0, 8, 0, 0, 0}, uint8(0x14), uint8(1))
	// Two 16-bid runs, odd and even bidders, that interleave: merged with cuts.
	var two []byte
	for _, parity := range []int{1, 2} {
		for b := parity; b <= 8; b += 2 {
			for alt := 0; alt < 4; alt++ {
				two = append(two, byte(b), byte(alt), byte(10*b+alt), byte(alt))
			}
		}
	}
	f.Add(two, uint8(0x05), uint8(3))
	demand := []int{1, 1, 1, 1}
	var ib IngestBuffer
	f.Fuzz(func(t *testing.T, data []byte, cuts, rotate uint8) {
		var bids []Bid
		for ; len(data) >= 4; data = data[4:] {
			covers := []int{int(data[3]) % 4}
			if data[3] >= 128 {
				covers = append(covers, (covers[0]+1)%4)
			}
			bids = append(bids, Bid{
				Bidder: int(data[0] % 16), Alt: int(data[1] % 4), Price: float64(data[2]),
				Covers: covers, Units: 1,
			})
		}
		got := ingestBids(&ib, demand, bids)
		want := canonicalCopy(bids)
		if len(want) > 0 && !reflect.DeepEqual(got.Bids, want) {
			t.Fatalf("Build differs from the stable canonical sort\n got %+v\nwant %+v", got.Bids, want)
		}
		runs, disjoint, interleaved := runOverlap(bids)
		if ib.Runs() != runs {
			t.Fatalf("Runs() = %d on arrivals %+v, want %d", ib.Runs(), bids, runs)
		}
		if (disjoint && ib.cuts != 0) || (interleaved && ib.cuts == 0) {
			t.Fatalf("%d run cuts on arrivals %+v (disjoint %v, interleaved %v)", ib.cuts, bids, disjoint, interleaved)
		}

		// Session-shaped: the distinct canonical keys cut into batches
		// before every key whose bit in the cuts mask (cycled) is set,
		// the batches rotated.
		var distinct []Bid
		for i, b := range want {
			if i == 0 || b.Bidder != want[i-1].Bidder || b.Alt != want[i-1].Alt {
				distinct = append(distinct, b)
			}
		}
		var batches [][]Bid
		for i, b := range distinct {
			if i == 0 || cuts&(1<<(i%8)) != 0 {
				batches = append(batches, nil)
			}
			batches[len(batches)-1] = append(batches[len(batches)-1], b)
		}
		var shaped []Bid
		for r := range batches {
			shaped = append(shaped, batches[(r+int(rotate))%len(batches)]...)
		}
		got = ingestBids(&ib, demand, shaped)
		if len(distinct) > 0 && !reflect.DeepEqual(got.Bids, distinct) {
			t.Fatalf("session-shaped Build differs\n got %+v\nwant %+v", got.Bids, distinct)
		}
		// The merge cuts at most at each batch boundary.
		if len(batches) > 0 && ib.cuts > len(batches)-1 {
			t.Fatalf("%d run cuts on %d session batches %+v", ib.cuts, len(batches), shaped)
		}
	})
}

// BenchmarkIngestBuffer times a fleet-10k round's ingest on a buffer
// reused across rounds, as the server reuses its own: "add" is Reset and
// Add of 10k one-bid agents (1–2 of 4 covers, arriving in id order),
// "build" the canonical Build of those bids. The agents belong to two
// sessions of 5k ids each, as in perfbench's fleet: "build" lands the
// sessions' batches in order and "build-reversed" the second session
// first, both merged without a cut; "build-interleaved" alternates the
// two sessions agent by agent, two-bid runs that the merge cuts after
// their first bid: each heap step emits one bid, the merge's worst case.
func BenchmarkIngestBuffer(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	demand := []int{2, 1, 2, 1}
	bids := make([]Bid, 10000)
	for i := range bids {
		covers := rng.Perm(len(demand))[:1+rng.Intn(2)]
		bids[i] = Bid{Bidder: i + 1, Price: float64(100+rng.Intn(1900)) / 100, Covers: covers, Units: 1}
	}
	half := len(bids) / 2
	reversed := append(append([]Bid(nil), bids[half:]...), bids[:half]...)
	var interleaved []Bid
	for i := 0; i < half; i++ {
		interleaved = append(interleaved, bids[i], bids[half+i])
	}
	var ib IngestBuffer
	add := func(bids []Bid) {
		ib.Reset(demand)
		for i := range bids {
			bd := &bids[i]
			ib.Add(bd.Bidder, bd.Alt, bd.Price, bd.Covers, bd.Units)
		}
	}
	b.Run("add", func(b *testing.B) {
		add(bids)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			add(bids)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(bids)), "ns/bid")
	})
	for _, tc := range []struct {
		name string
		bids []Bid
		cuts int
	}{{"build", bids, 0}, {"build-reversed", reversed, 0}, {"build-interleaved", interleaved, half}} {
		b.Run(tc.name, func(b *testing.B) {
			add(tc.bids)
			ib.Build()
			if ib.cuts != tc.cuts {
				b.Fatalf("Build made %d run cuts, want %d", ib.cuts, tc.cuts)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ib.Build()
			}
		})
	}
}
