package platform

import (
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"edgeauction/internal/core"
)

// BenchmarkWALAppend appends a durable-10k-shaped record (10k one-bid
// agents, a 10k-entry capacity map, a state hash) to a WAL without fsync.
func BenchmarkWALAppend(b *testing.B) {
	w, err := CreateWAL(filepath.Join(b.TempDir(), "bench.wal"), false)
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	rec := durableRecord(10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.Append(rec); err != nil {
			b.Fatal(err)
		}
	}
}

// durableRecord is a durable-10k-shaped WAL record: one bid per agent,
// covering 1–2 of 4 needy services, a capacity entry per agent and a
// 64-hex state hash.
func durableRecord(agents int) *AuditRecord {
	rng := rand.New(rand.NewSource(1))
	rec := &AuditRecord{
		T: 1, Demand: []int{2, 1, 2, 1}, Bids: make([]AuditBid, agents),
		Capacity: make(map[int]int, agents), Windows: map[int]core.BidderWindow{},
		StateHash: strings.Repeat("0123456789abcdef", 4),
	}
	for i := range rec.Bids {
		covers := []int{rng.Intn(4)}
		if rng.Intn(2) == 0 {
			covers = append(covers, (covers[0]+1+rng.Intn(3))%4)
		}
		rec.Bids[i] = AuditBid{Bidder: i + 1, Alt: 0, Price: float64(100+rng.Intn(10000)) / 100, Covers: covers, Units: 1}
		rec.Capacity[i+1] = 0
	}
	for i := 0; i < 6; i++ {
		w := rec.Bids[rng.Intn(agents)]
		rec.Awards = append(rec.Awards, WireAward{Bidder: w.Bidder, Payment: w.Price * 1.25})
		rec.SocialCost += w.Price
	}
	return rec
}
