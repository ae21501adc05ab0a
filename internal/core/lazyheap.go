package core

// greedyState is the mutable state of one greedy selection run over a
// kernel's flat view: the truthful main run, the budgeted run, a payment
// worker's follower, or a counterfactual payment replay. All four draw
// their per-iteration arg-min from the same lazy-rescore heap (popBest)
// and commit winners the same way (commit), so they cannot drift apart.
//
// The heap replaces the per-iteration O(candidates) arg-min scan with a
// binary min-heap over (score, bid index) under LAZY RESCORING, exploiting
// two monotonicity facts of the set-multicover greedy:
//
//   - θ only grows, so a bid's marginal coverage is non-increasing and its
//     greedy score (scaled price / marginal) is NON-DECREASING over time.
//     An entry's cached marginal is therefore always an UPPER BOUND on the
//     bid's true marginal, and its cached key, computed from that
//     marginal, a LOWER BOUND on the bid's true score.
//   - A bid whose marginal hits 0 is dead FOREVER and leaves the heap
//     permanently.
//
// Freshness is checked at the root only: popBest recomputes the surfacing
// root's marginal. If it equals the cached one, the cached key is the
// root's exact score; if it is smaller, the root is rescored (its key can
// only rise, so one sift-down restores the heap order); if it is zero, the
// root is dropped. Entries below the root are never touched, so committing
// a winner costs no more than updating θ. Bidder-group bans are lazy as
// well: pops discard roots whose group is banned.
//
// Exactness (DESIGN.md §11): a returned root is the exact lexicographic
// minimum of (true score, bid index) over all live bids, because its key
// is exact, the heap orders by cached keys, every cached key lower-bounds
// its true score, and ties compare by bid index — so the pop sequence is a
// function of (θ, banned groups) alone and reproduces the reference
// implementation's ascending-scan lowest-index tie-break bit for bit,
// whatever the heap's internal layout. That is also why a replay may start
// from a copy of another run's heap (kernel.go, replayScratch). A flat
// binary heap was chosen over a pairing heap and the old full scan by
// benchmark when the heap landed (DESIGN.md §11): the slice-backed heap
// wins on this workload (no per-node allocations, cache-contiguous sifts),
// and a bucket queue would need float64 key quantization that cannot
// preserve exact score ties.
type greedyState struct {
	theta   []int32 // θ_k, capped at demand[k]
	deficit int
	banned  []bool // per bidder group: won, excluded by a replay, or rejected by the budget
	heap    []heapEntry
}

// heapEntry is one live (or lazily retained) bid in a greedyState heap.
type heapEntry struct {
	key  float64 // scoreOf(bid, marg): a lower bound on the true score
	bid  int32
	marg int32 // an upper bound on the true marginal, exact at the key's evaluation
}

// before is THE greedy ordering over cached keys (betterScore).
func (e heapEntry) before(o heapEntry) bool { return betterScore(e.key, e.bid, o.key, o.bid) }

// reset puts st in the pre-auction state (θ ≡ 0, no bans) and seeds the
// heap with the exact initial (score, marginal) of every bid, leaving out
// bids whose marginal is already 0 — they can never be selected, exactly
// as the reference's first scan would skip them. All arrays are pooled
// with their owner (kernel or replayScratch); steady state allocates
// nothing.
func (st *greedyState) reset(kn *kernel) {
	st.theta = resize(st.theta, kn.nk)
	clear(st.theta)
	st.deficit = kn.totalDemand
	st.banned = resize(st.banned, len(kn.groupStart)-1)
	clear(st.banned)
	if cap(st.heap) < kn.nb {
		st.heap = make([]heapEntry, 0, kn.nb)
	}
	st.heap = st.heap[:0]
	for b := int32(0); b < int32(kn.nb); b++ {
		if m := kn.marginalOf(b, st.theta); m > 0 {
			st.heap = append(st.heap, heapEntry{key: kn.scoreOf(b, m), bid: b, marg: int32(m)})
		}
	}
	for i := len(st.heap)/2 - 1; i >= 0; i-- {
		st.siftDown(i)
	}
}

// copyFrom makes st an independent copy of src, heap included.
func (st *greedyState) copyFrom(src *greedyState) {
	st.theta = append(st.theta[:0], src.theta...)
	st.deficit = src.deficit
	st.banned = append(st.banned[:0], src.banned...)
	st.heap = append(st.heap[:0], src.heap...)
}

// siftDown moves heap slot i's entry down to restore the heap order.
func (st *greedyState) siftDown(i int) {
	h := st.heap
	x := h[i]
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if r := c + 1; r < len(h) && h[r].before(h[c]) {
			c = r
		}
		if !h[c].before(x) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = x
}

// pop removes the heap root. The last entry, which refills the heap, is
// usually among the worst, so instead of sifting it down from the root
// with two comparisons per level, the hole sinks along the better children
// to a leaf (one comparison per level) and the entry rises from there.
func (st *greedyState) pop() {
	n := len(st.heap) - 1
	x := st.heap[n]
	h := st.heap[:n]
	st.heap = h
	if n == 0 {
		return
	}
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h[r].before(h[c]) {
			c = r
		}
		h[i] = h[c]
		i = c
	}
	for i > 0 {
		p := (i - 1) / 2
		if !x.before(h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = x
}

// popBest surfaces the true greedy arg-min at st's θ: it examines the heap
// root, discarding banned and dead roots and rescoring roots whose
// marginal shrank, until the root's cached marginal is its true one. The
// returned winner is NOT popped — its group ban lets the lazy-delete path
// discard it. Returns best = -1 when no live candidate remains.
func (st *greedyState) popBest(kn *kernel) (best int32, bestScore float64, bestMarginal int) {
	for len(st.heap) > 0 {
		top := &st.heap[0]
		if st.banned[kn.groupOf[top.bid]] {
			st.pop()
			continue
		}
		switch m := kn.marginalOf(top.bid, st.theta); {
		case m == int(top.marg):
			return top.bid, top.key, m
		case m <= 0: // dead forever: θ only grows
			st.pop()
		default:
			top.marg = int32(m)
			top.key = kn.scoreOf(top.bid, m)
			st.siftDown(0)
		}
	}
	return -1, 0, 0
}

// commit bans bid b's bidder group and applies b to (θ, deficit). When
// gains is non-nil it receives b's per-cover gains, aligned with
// Bid.Covers, for the certificate builder. θ stays capped at demand, so
// the per-edge gain formula matches marginalOf exactly.
func (st *greedyState) commit(kn *kernel, b int32, gains []int) {
	st.banned[kn.groupOf[b]] = true
	for i, e := 0, kn.coverStart[b]; e < kn.coverStart[b+1]; i, e = i+1, e+1 {
		k := kn.coverKey[e]
		g := min(kn.coverCap[e], kn.demand[k]-st.theta[k])
		st.theta[k] += g
		st.deficit -= int(g)
		if gains != nil {
			gains[i] = int(g)
		}
	}
}
