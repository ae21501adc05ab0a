package core

import (
	"cmp"
	"slices"
)

// IngestBuffer accumulates a round's bids in the flat layout the SSAM
// kernel consumes, so the platform's gather phase can append bids as they
// arrive off the wire instead of growing one []Bid and re-allocating
// every cover slice per round.
//
// Bids go into one arrival-ordered list of fixed-size headers plus one
// flat cover arena. Build re-emits them in the global canonical
// (Bidder, Alt) order, so the assembled Instance — and hence winners,
// payments, WAL bytes and state hash — is byte-identical no matter in
// what order the bids arrived. Arrival order is mostly a few long
// ascending runs: a platform session owns a contiguous id range and its
// whole batch lands at once. Build therefore merges the ascending runs of
// the list instead of sorting it (see Build), in linear time when the
// runs are session batches.
//
// All storage (headers, cover arena, run heap and the assembled
// Instance.Bids) is retained across Reset calls, so a server running
// rounds back to back performs no per-round bookkeeping allocations once
// the high-water mark is reached. The zero value is an empty buffer ready
// for use.
//
// An IngestBuffer is not safe for concurrent use; the platform
// serializes Add calls under its gather lock.
type IngestBuffer struct {
	heads  []ingestHead
	arena  []int
	demand []int

	// Build scratch and the assembled instance, reused across rounds.
	runs  []ingestRun
	nruns int // maximal ascending runs the last Build found
	cuts  int // runs the last Build's merge cut and sifted back
	bids  []Bid
	inst  Instance
}

// ingestHead is one bid without its cover slice materialized; covers
// live in the arena so arena growth cannot invalidate them.
type ingestHead struct {
	bidder, alt int
	price       float64
	coverStart  int
	coverLen    int
	units       int
}

// ingestRun is the unemitted rest heads[start:end] of a maximal strictly
// ascending stretch of the arrival list.
type ingestRun struct{ start, end int }

// NewIngestBuffer returns an empty buffer. The shards argument is
// ignored and stays for existing callers: Build orders every bid
// globally, so sharding the list would buy nothing.
func NewIngestBuffer(shards int) *IngestBuffer {
	return &IngestBuffer{}
}

// Reset opens the buffer for a new round with the given residual
// demand. The demand slice is referenced, not copied; callers must not
// mutate it until after Build's Instance is consumed.
func (ib *IngestBuffer) Reset(demand []int) {
	ib.demand = demand
	ib.heads = ib.heads[:0]
	ib.arena = ib.arena[:0]
	ib.bids = ib.bids[:0]
}

// Add appends one bid. Covers is copied into the flat arena, so the
// caller may reuse its slice (e.g. a decoded wire message) freely.
func (ib *IngestBuffer) Add(bidder, alt int, price float64, covers []int, units int) {
	start := len(ib.arena)
	ib.arena = append(ib.arena, covers...)
	ib.heads = append(ib.heads, ingestHead{
		bidder: bidder, alt: alt, price: price,
		coverStart: start, coverLen: len(covers), units: units,
	})
}

// Len returns the number of bids added since the last Reset.
func (ib *IngestBuffer) Len() int { return len(ib.heads) }

// Runs reports how many maximal ascending arrival runs the last Build
// merged: one per session batch when batches land whole, fewer when
// batches arrive in ascending order.
func (ib *IngestBuffer) Runs() int { return ib.nruns }

// cmpKey compares heads[i] and heads[j] in canonical (Bidder, Alt) order.
func (ib *IngestBuffer) cmpKey(i, j int) int {
	a, b := &ib.heads[i], &ib.heads[j]
	if c := cmp.Compare(a.bidder, b.bidder); c != 0 {
		return c
	}
	return cmp.Compare(a.alt, b.alt)
}

// before reports whether heads[i] precedes heads[j] in the order Build
// emits: canonical (Bidder, Alt), ties by arrival position.
func (ib *IngestBuffer) before(i, j int) bool {
	c := ib.cmpKey(i, j)
	return c < 0 || (c == 0 && i < j)
}

// Build assembles the round instance in canonical (Bidder, Alt) order.
// Each bid's Covers aliases the arena — zero per-bid slice allocations —
// so the returned Instance is valid only until the next Reset.
//
// Build cuts the arrival list into its R maximal strictly ascending runs
// and merges them through a min-heap keyed by each run's next bid. The
// root run emits bids for as long as they precede every other run's next
// bid, so a run whose key range overlaps no other is emitted whole; only
// where runs interleave is a run cut and sifted back. With W cuts the
// merge costs O(n + (R+W) log R): for S session batches — disjoint
// ascending runs in any arrival order — R ≤ S and W < S, so Build is
// linear. W < n, so arrivals in no useful order cost O(n log n), as a
// sort would.
//
// Bids sharing a key (an instance Validate rejects) come out in arrival
// order, so the result equals a stable sort and is a function of the
// added bids and their arrival order alone — which is what makes the
// pipelined gather byte-identical to the serial one.
func (ib *IngestBuffer) Build() *Instance {
	n := len(ib.heads)
	ib.runs = ib.runs[:0]
	for i := 0; i < n; {
		j := i + 1
		for j < n && ib.cmpKey(j-1, j) < 0 {
			j++
		}
		ib.runs = append(ib.runs, ingestRun{start: i, end: j})
		i = j
	}
	if cap(ib.bids) < n {
		ib.bids = make([]Bid, 0, n)
	}
	ib.bids = ib.bids[:0]
	ib.nruns, ib.cuts = len(ib.runs), 0
	// Sorted by first bid, the runs already form a valid heap.
	slices.SortFunc(ib.runs, func(a, b ingestRun) int {
		if ib.before(a.start, b.start) {
			return -1
		}
		return 1
	})
	for len(ib.runs) > 0 {
		r := &ib.runs[0]
		// The root emits until it reaches the smaller child's next bid,
		// the earliest among the other runs.
		c := 1
		if c+1 < len(ib.runs) && ib.before(ib.runs[c+1].start, ib.runs[c].start) {
			c++
		}
		for r.start < r.end && (c >= len(ib.runs) || ib.before(r.start, ib.runs[c].start)) {
			ib.emit(&ib.heads[r.start])
			r.start++
		}
		if r.start == r.end {
			last := len(ib.runs) - 1
			ib.runs[0] = ib.runs[last]
			ib.runs = ib.runs[:last]
		} else {
			ib.cuts++
		}
		ib.siftDown()
	}
	ib.inst = Instance{Demand: ib.demand, Bids: ib.bids}
	return &ib.inst
}

// siftDown restores the run heap's order below a root whose next bid
// moved or that was replaced.
func (ib *IngestBuffer) siftDown() {
	h := ib.runs
	for i := 0; ; {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && ib.before(h[c+1].start, h[c].start) {
			c++
		}
		if !ib.before(h[c].start, h[i].start) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// emit appends hd's bid, its Covers aliasing the arena, to ib.bids.
func (ib *IngestBuffer) emit(hd *ingestHead) {
	end := hd.coverStart + hd.coverLen
	ib.bids = append(ib.bids, Bid{
		Bidder:   hd.bidder,
		Alt:      hd.alt,
		Price:    hd.price,
		TrueCost: hd.price,
		Covers:   ib.arena[hd.coverStart:end:end],
		Units:    hd.units,
	})
}
