package core

import "sort"

// IngestBuffer accumulates a round's bids shard-by-shard in the flat
// layout the SSAM kernel consumes, so the platform's gather phase can
// append bids as they arrive off the wire instead of growing one []Bid
// and re-allocating every cover slice per round.
//
// Sharding rule: a bid lands in the shard of the first needy
// microservice it covers (firstCover mod shards). Cover sets in the
// edge-cloud workloads are localized — a microservice bids on the needy
// services in its own neighborhood — so the rule keeps each shard's
// cover arena contiguous for the needy partition it serves, which is
// exactly the layout kernel.build's CSR pass walks. The shard choice
// never affects the mechanism: Build re-emits every bid in the global
// canonical (Bidder, Alt) order, so the assembled Instance — and hence
// winners, payments, WAL bytes, and state hash — is byte-identical no
// matter how bids were routed or in what order they arrived.
//
// All append storage (per-shard bid headers, cover arenas, the
// assembled Instance.Bids and the merge scratch) is retained across
// Reset calls, so a server running rounds back to back performs no
// per-round bookkeeping allocations once the high-water mark is
// reached.
//
// An IngestBuffer is not safe for concurrent use; the platform
// serializes Add calls under its gather lock.
type IngestBuffer struct {
	shards []ingestShard
	demand []int

	// assembled instance storage, reused across rounds.
	bids   []Bid
	sorter canonicalBids
	inst   Instance
}

// canonicalBids sorts a bid slice into the canonical (Bidder, Alt)
// order. It lives as a field so sort.Sort sees an already-boxed pointer
// and the Build path stays allocation-free.
type canonicalBids struct{ bids []Bid }

func (c *canonicalBids) Len() int      { return len(c.bids) }
func (c *canonicalBids) Swap(i, j int) { c.bids[i], c.bids[j] = c.bids[j], c.bids[i] }
func (c *canonicalBids) Less(i, j int) bool {
	if c.bids[i].Bidder != c.bids[j].Bidder {
		return c.bids[i].Bidder < c.bids[j].Bidder
	}
	return c.bids[i].Alt < c.bids[j].Alt
}

// ingestShard is one needy-partition append buffer: fixed-size bid
// headers plus a flat cover arena indexed by [start, start+n).
type ingestShard struct {
	heads []ingestHead
	arena []int
}

// ingestHead is one bid without its cover slice materialized; covers
// live in the shard arena so arena growth cannot invalidate them.
type ingestHead struct {
	bidder, alt int
	price       float64
	coverStart  int
	coverLen    int
	units       int
}

// NewIngestBuffer returns a buffer with the given shard count (values
// below 1 are treated as 1).
func NewIngestBuffer(shards int) *IngestBuffer {
	if shards < 1 {
		shards = 1
	}
	return &IngestBuffer{shards: make([]ingestShard, shards)}
}

// Shards returns the shard count.
func (ib *IngestBuffer) Shards() int { return len(ib.shards) }

// Reset opens the buffer for a new round with the given residual
// demand. The demand slice is referenced, not copied; callers must not
// mutate it until after Build's Instance is consumed.
func (ib *IngestBuffer) Reset(demand []int) {
	ib.demand = demand
	for i := range ib.shards {
		ib.shards[i].heads = ib.shards[i].heads[:0]
		ib.shards[i].arena = ib.shards[i].arena[:0]
	}
	ib.bids = ib.bids[:0]
}

// shardOf routes a bid by its needy partition: the first covered needy
// microservice selects the shard.
func (ib *IngestBuffer) shardOf(covers []int) int {
	if len(covers) == 0 || len(ib.shards) == 1 {
		return 0
	}
	k := covers[0]
	if k < 0 {
		k = -k
	}
	return k % len(ib.shards)
}

// Add appends one bid. Covers is copied into the shard's flat arena, so
// the caller may reuse its slice (e.g. a decoded wire message) freely.
func (ib *IngestBuffer) Add(bidder, alt int, price float64, covers []int, units int) {
	sh := &ib.shards[ib.shardOf(covers)]
	start := len(sh.arena)
	sh.arena = append(sh.arena, covers...)
	sh.heads = append(sh.heads, ingestHead{
		bidder: bidder, alt: alt, price: price,
		coverStart: start, coverLen: len(covers), units: units,
	})
}

// Len returns the number of bids added since the last Reset.
func (ib *IngestBuffer) Len() int {
	n := 0
	for i := range ib.shards {
		n += len(ib.shards[i].heads)
	}
	return n
}

// Build assembles the round instance in canonical (Bidder, Alt) order.
// Each bid's Covers aliases its shard's arena — zero per-bid slice
// allocations — so the returned Instance is valid only until the next
// Reset. The sort is deterministic regardless of arrival order or shard
// routing, which is what makes the pipelined gather byte-identical to
// the serial one.
func (ib *IngestBuffer) Build() *Instance {
	total := ib.Len()
	if cap(ib.bids) < total {
		ib.bids = make([]Bid, 0, total)
	}
	ib.bids = ib.bids[:0]
	for s := range ib.shards {
		sh := &ib.shards[s]
		for h := range sh.heads {
			hd := &sh.heads[h]
			ib.bids = append(ib.bids, Bid{
				Bidder:   hd.bidder,
				Alt:      hd.alt,
				Price:    hd.price,
				TrueCost: hd.price,
				Covers:   sh.arena[hd.coverStart : hd.coverStart+hd.coverLen : hd.coverStart+hd.coverLen],
				Units:    hd.units,
			})
		}
	}
	ib.sorter.bids = ib.bids
	sort.Sort(&ib.sorter)
	ib.inst = Instance{Demand: ib.demand, Bids: ib.bids}
	return &ib.inst
}
