package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"edgeauction/internal/obs"
)

// This file is the optimized SSAM selection/payment engine. It produces
// BIT-IDENTICAL outcomes (winner sequence, costs, every payment, the dual
// certificate) to the straightforward implementation preserved as the
// differential oracle in reference_test.go, via three exact optimizations:
//
//  1. CSR cover layout. Bid.Covers is flattened once per run into shared
//     arrays (coverStart offsets + coverKey needy indices + coverCap
//     precomputed min(Units, Demand[k]) per edge), so the inner marginal
//     loop is branch-light and cache-contiguous instead of chasing
//     per-bid slices.
//
//  2. Dead bids and removed bidders leave for good. Marginal coverage is
//     monotone non-increasing (θ only grows), so a bid whose marginal hits
//     0 is dead FOREVER; it is dropped when it surfaces and never
//     revisited. Removing a bidder is one flag per bidder group, read only
//     when one of the group's bids surfaces.
//
//  2b. Lazy-rescore priority selection (lazyheap.go). Every greedy
//     selection loop — main run, budgeted run, and each counterfactual
//     replay — draws its arg-min from a binary min-heap over
//     (score, bid index) whose cached keys are lower bounds on the true
//     scores, instead of a full candidate scan per iteration. popBest
//     rechecks only the surfacing root's marginal, so committing a winner
//     invalidates nothing. Exact by the monotone-marginal lower bound
//     argument written up in DESIGN.md §11.
//
//  3. Checkpointed counterfactual payment replays. The critical-value
//     replay that excludes winner w's bidder is provably identical to the
//     truthful run up to the iteration s where w was selected: before s,
//     no bid of w's bidder was ever the greedy arg-min — a strictly better
//     bid would have been selected, and under lowest-index tie-breaking an
//     equal-score bid of w's bidder with a lower index would also have been
//     selected, so removing the bidder changes neither the selections nor
//     the scores. The main run records (θ, selected score) at every
//     winning iteration; each winner's replay then reduces to a cheap
//     prefix max over stored scores (O(s·|Covers_w|), no candidate scans)
//     plus a live replay of only the SUFFIX from its own checkpoint. The
//     suffix starts from a copy of the main run's state at s — θ, deficit,
//     bans and heap — which each payment worker's follower re-derives by
//     re-running the main selection once, in ascending s, instead of
//     re-seeding a heap per winner. The per-iteration max is
//     order-independent, so prefix-max + suffix-max equals the full
//     replay's max bit for bit. Pivotal winners (counterfactual arg-min
//     exhausted) can only surface in the suffix — the prefix replays
//     selections that actually happened.
//
// The kernel operates on int32 state for cache density; build rejects the
// (unrealistic) instances whose demands, or a bid's summed clamped cover
// capacities (an upper bound on its marginal), overflow that domain instead
// of silently truncating.

// betterScore is THE greedy ordering, shared by every selection path (the
// lazy-rescore heaps behind selection, budgeted selection and the
// counterfactual payment replays): (s1, b1) beats (s2, b2) when its score
// is strictly lower, or on an exact score tie when its bid index is lower.
// Centralizing the comparison keeps the tie-break bit-identical across all
// paths — the reference's ascending scan realizes the same order
// implicitly, and the differential fuzz gate holds every path to it.
func betterScore(s1 float64, b1 int32, s2 float64, b2 int32) bool {
	return s1 < s2 || (s1 == s2 && b1 < b2)
}

// kernel is the flat view of one ssamScaled (or BudgetedSSAM) run plus all
// mutable greedy state and the payment checkpoints. Kernels are pooled; the
// flat view is immutable once built and is shared read-only by the parallel
// payment replays.
type kernel struct {
	nb     int // number of bids
	nk     int // number of needy microservices
	metric GreedyMetric

	demand []int32
	scaled []float64 // caller's scaled prices ∇ (borrowed, read-only)

	// CSR cover view: bid b's edges are [coverStart[b], coverStart[b+1]).
	coverStart []int32
	coverKey   []int32 // needy index per edge
	coverCap   []int32 // min(Units, Demand[key]) per edge

	// Bidder grouping ("remove ALL bids of the winning bidder"):
	// groupBids is the bid index permutation sorted by (Bidder, index), so
	// group g — the g-th smallest bidder id — owns
	// groupBids[groupStart[g]:groupStart[g+1]] in ascending bid order, and
	// groupOf maps a bid back to its group, whose one ban flag removes all
	// of its bids. The certificate reads the same groups for Ξ and the
	// bidder slack z.
	groupOf    []int32
	groupStart []int32
	groupBids  []int32

	// The truthful (or budgeted) run's mutable state: θ, deficit, bidder
	// group bans and the lazy-rescore heap (lazyheap.go).
	main        greedyState
	totalDemand int
	winners     []int

	// seed is main as reset left it, kept only for runs whose payments
	// replay (CriticalValue): each payment worker's follower, and each of
	// BudgetedSSAM's from-scratch replays, starts from a copy of it
	// instead of recomputing every bid's marginal and re-heapifying.
	// reset is deterministic, so the copy is exact.
	seed greedyState

	// Per-winning-iteration checkpoints (CriticalValue payments only): θ
	// BEFORE the iteration's winner was applied, iterations × nk
	// flattened, and the iteration's selected score. Replays take the rest
	// of the state at a checkpoint from their follower (replayScratch).
	ckTheta []int32
	ckScore []float64

	// gains is the certificate's per-winner gains scratch (aligned with
	// Covers); SkipCertificate runs never size it.
	gains []int

	// tracer is Options.Tracer for the duration of one run (nil when
	// tracing is disabled); cleared on release so a pooled kernel never
	// leaks a sink into the next run.
	tracer obs.Tracer
}

var kernelPool = sync.Pool{New: func() any { return new(kernel) }}

func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// build flattens ins and scaled into the kernel and resets all run state.
func (kn *kernel) build(ins *Instance, scaled []float64, opts Options) error {
	nb, nk := len(ins.Bids), len(ins.Demand)
	kn.nb, kn.nk = nb, nk
	kn.scaled = scaled
	kn.metric = opts.metric()
	kn.tracer = opts.Tracer

	kn.demand = resize(kn.demand, nk)
	kn.totalDemand = 0
	for k, d := range ins.Demand {
		if d > math.MaxInt32 {
			return fmt.Errorf("core: demand %d of needy microservice %d exceeds the kernel's int32 domain", d, k)
		}
		// The raw (possibly negative) demand counts toward the deficit —
		// the reference sums demands verbatim — but the gain math clamps
		// at 0 so a negative demand can never be covered, exactly like the
		// reference's `before >= demand` skip.
		kn.totalDemand += d
		if d < 0 {
			d = 0
		}
		kn.demand[k] = int32(d)
	}

	edges := 0
	for i := range ins.Bids {
		edges += len(ins.Bids[i].Covers)
	}
	kn.coverStart = resize(kn.coverStart, nb+1)
	kn.coverKey = resize(kn.coverKey, edges)
	kn.coverCap = resize(kn.coverCap, edges)
	e := int32(0)
	for i := range ins.Bids {
		b := &ins.Bids[i]
		if b.Units < 1 {
			return fmt.Errorf("core: bid %d has non-positive units %d", i, b.Units)
		}
		kn.coverStart[i] = e
		reach := 0 // Σ coverCap: bounds every marginal of b (heapEntry.marg)
		for _, k := range b.Covers {
			u := b.Units // clamp in int before narrowing: demand ≤ MaxInt32
			if d := int(kn.demand[k]); u > d {
				u = d
			}
			reach += u
			kn.coverKey[e] = int32(k)
			kn.coverCap[e] = int32(u)
			e++
		}
		if reach > math.MaxInt32 {
			return fmt.Errorf("core: bid %d can cover %d units, beyond the kernel's int32 domain", i, reach)
		}
	}
	kn.coverStart[nb] = e

	kn.groupBidders(ins.Bids)

	kn.winners = kn.winners[:0]
	kn.ckTheta = kn.ckTheta[:0]
	kn.ckScore = kn.ckScore[:0]
	kn.main.reset(kn)
	if opts.payment() == CriticalValue {
		kn.seed.copyFrom(&kn.main)
	}
	return nil
}

// groupBidders fills groupBids, groupStart and groupOf for bids. The
// canonical (Bidder, Alt) order IngestBuffer.Build emits is already sorted
// by (Bidder, index), which pdqsort confirms in linear time; other callers
// pay one index sort. The order is total, so the sort needs no stability.
func (kn *kernel) groupBidders(bids []Bid) {
	kn.groupBids = resize(kn.groupBids, len(bids))
	for i := range kn.groupBids {
		kn.groupBids[i] = int32(i)
	}
	slices.SortFunc(kn.groupBids, func(a, b int32) int {
		if c := cmp.Compare(bids[a].Bidder, bids[b].Bidder); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	kn.groupOf = resize(kn.groupOf, len(bids))
	kn.groupStart = kn.groupStart[:0]
	for j, b := range kn.groupBids {
		if j == 0 || bids[b].Bidder != bids[kn.groupBids[j-1]].Bidder {
			kn.groupStart = append(kn.groupStart, int32(j))
		}
		kn.groupOf[b] = int32(len(kn.groupStart) - 1)
	}
	kn.groupStart = append(kn.groupStart, int32(len(bids)))
}

// scoreOf is the greedy metric evaluated exactly as the reference does:
// scaled price over marginal for PricePerCoverage, scaled price alone for
// LowestPrice. All paths must compute scores through this one function so
// the float64 operation sequence stays bit-identical.
func (kn *kernel) scoreOf(b int32, m int) float64 {
	if kn.metric == LowestPrice {
		return kn.scaled[b]
	}
	return kn.scaled[b] / float64(m)
}

// release drops the borrowed scaled-price slice and returns the kernel to
// the pool. All payment workers must have been joined by the caller.
func (kn *kernel) release() {
	kn.scaled = nil
	kn.tracer = nil
	kernelPool.Put(kn)
}

// marginalOf returns U_w(E): the marginal coverage of bid b at state theta
// (Eq. 19). theta may be the main-run state, a replay state, or a stored
// checkpoint row. With theta capped at demand, every residual r is ≥ 0 and
// each edge contributes min(coverCap, r) — branch-light by construction.
func (kn *kernel) marginalOf(b int32, theta []int32) int {
	gain := 0
	for e := kn.coverStart[b]; e < kn.coverStart[b+1]; e++ {
		k := kn.coverKey[e]
		r := kn.demand[k] - theta[k]
		g := kn.coverCap[e]
		if g > r {
			g = r
		}
		gain += int(g)
	}
	return gain
}

// selectWinners runs the greedy selection loop (Algorithm 1, lines 3-12)
// on the built kernel, filling out's winner list and cost accounting and
// feeding the certificate builder when present. The per-iteration arg-min
// comes from the lazy-rescore heap (popBest) instead of a full candidate
// scan. Checkpoints are recorded only when the payment phase will consume
// them.
func (kn *kernel) selectWinners(ins *Instance, opts Options, out *Outcome, cert *certBuilder) error {
	checkpoints := opts.payment() == CriticalValue
	for kn.main.deficit > 0 {
		best, score, marginal := kn.main.popBest(kn)
		if best < 0 {
			return fmt.Errorf("%w: uncovered demand %d remains", ErrInfeasible, kn.main.deficit)
		}
		if checkpoints {
			kn.ckTheta = append(kn.ckTheta, kn.main.theta...)
			kn.ckScore = append(kn.ckScore, score)
		}
		if kn.tracer != nil {
			kn.tracer.Emit(obs.GreedyPick{
				Iteration: len(kn.winners), Bid: int(best),
				Bidder: ins.Bids[best].Bidder, Alt: ins.Bids[best].Alt,
				Score: score, Marginal: marginal, ScaledPrice: kn.scaled[best],
			})
		}
		if cert != nil {
			kn.gains = resize(kn.gains, int(kn.coverStart[best+1]-kn.coverStart[best]))
			kn.main.commit(kn, best, kn.gains)
			cert.record(int(best), &ins.Bids[best], kn.gains, kn.scaled[best], marginal)
		} else {
			kn.main.commit(kn, best, nil)
		}
		kn.winners = append(kn.winners, int(best))
		out.SocialCost += ins.Bids[best].Price
		out.ScaledCost += kn.scaled[best]
	}
	out.Winners = append([]int(nil), kn.winners...)
	return nil
}

// replayScratch is the reusable per-worker state of the counterfactual
// payment runs. replay is the current counterfactual — a greedy run whose
// θ only grows, so the lazy-greedy exactness argument applies from its
// starting state. follower re-runs the main selection with the same pop
// and commit steps; after next iterations it holds the main run's exact
// state at checkpoint next, heap included, so a checkpointed replay starts
// from a copy of it instead of re-seeding a heap. Each worker loads its
// checkpoints in ascending order (the serial loop, or the shared atomic
// counter), so one follower pass per worker serves every replay; a
// request behind the follower rewinds it. Pooled so neither the serial
// nor the parallel payment path allocates per winner.
type replayScratch struct {
	replay   greedyState
	follower greedyState
	next     int
}

var replayScratchPool = sync.Pool{New: func() any { return new(replayScratch) }}

// follow advances the follower to main-run checkpoint s, rewinding it
// first if it has already passed s.
func (rs *replayScratch) follow(kn *kernel, s int) {
	if s < rs.next {
		rs.startFollower(kn)
	}
	for ; rs.next < s; rs.next++ {
		b, _, _ := rs.follower.popBest(kn)
		rs.follower.commit(kn, b, nil)
	}
}

// startFollower rewinds the follower to the pre-auction state of kn's run.
func (rs *replayScratch) startFollower(kn *kernel) {
	rs.follower.copyFrom(&kn.seed)
	rs.next = 0
}

// loadCheckpoint initializes rs.replay to the main run's state at
// checkpoint s with bidder group ban excluded. startFollower must have
// bound rs to kn's run; calls in ascending s share one follower pass.
func (rs *replayScratch) loadCheckpoint(kn *kernel, s int, ban int32) {
	rs.follow(kn, s)
	rs.replay.copyFrom(&rs.follower)
	rs.replay.banned[ban] = true
}

// loadInitial initializes rs.replay to the blank pre-auction state (θ ≡ 0,
// all bids live) with bidder group ban excluded — the from-scratch replay
// used by BudgetedSSAM, whose selection path diverges from plain SSAM once
// the budget binds and therefore cannot reuse the truthful run's
// checkpoints.
func (rs *replayScratch) loadInitial(kn *kernel, ban int32) {
	rs.replay.copyFrom(&kn.seed)
	rs.replay.banned[ban] = true
}

// replayFrom runs the counterfactual greedy from st's loaded state,
// accumulating max over iterations of U_w(E_s)·θ_s — what bid w's report
// could be while still preempting the iteration — until w can no longer
// contribute or the demand is covered. pivotal reports that the remaining
// demand was uncoverable while w still had positive marginal (the reserve
// applies; any accumulated value is discarded, as in the reference).
func (kn *kernel) replayFrom(st *greedyState, w int32, prior float64) (best float64, pivotal bool) {
	best = prior
	for st.deficit > 0 {
		m := kn.marginalOf(w, st.theta)
		if m <= 0 {
			break
		}
		idx, score, _ := st.popBest(kn)
		if idx < 0 {
			return 0, true
		}
		if v := float64(m) * score; v > best {
			best = v
		}
		st.commit(kn, idx, nil)
	}
	return best, false
}

// criticalValue computes winner w's Myerson threshold (Lemma 3's
// counterfactual without w's bidder, see paymentFor in reference_test.go
// for the from-scratch formulation). s is w's position in the winner
// sequence. The prefix t < s replays nothing: the counterfactual coincides
// with the truthful run there, so the iteration values are
// marginalOf(w, checkpoint-θ_t) · stored score_t. The suffix runs live
// from checkpoint s. Pivotality cannot occur in the prefix (those
// iterations selected real bids), and w's marginal is strictly positive
// throughout it (marginals are non-increasing and w's was still positive
// at s), so no prefix iteration can break out early either.
func (kn *kernel) criticalValue(ins *Instance, w int32, s int, opts Options, rs *replayScratch) float64 {
	best := 0.0
	for t := 0; t < s; t++ {
		m := kn.marginalOf(w, kn.ckTheta[t*kn.nk:(t+1)*kn.nk])
		if v := float64(m) * kn.ckScore[t]; v > best {
			best = v
		}
	}
	rs.loadCheckpoint(kn, s, kn.groupOf[w])
	best, pivotal := kn.replayFrom(&rs.replay, w, best)
	switch {
	case pivotal:
		best = reservePayment(ins, kn.scaled, int(w), opts)
	case best < kn.scaled[w]:
		// Numeric guard: the winner beat the truthful-run competition, so
		// its critical value is at least its own report.
		best = kn.scaled[w]
	}
	if kn.tracer != nil {
		kn.tracer.Emit(obs.PaymentReplay{
			Winner: int(w), Bidder: ins.Bids[w].Bidder, Payment: best,
			Checkpoint: s, CheckpointHit: true, Pivotal: pivotal,
		})
	}
	return best
}

// fullCounterfactual computes the critical value of bid w via a
// from-scratch replay against the full candidate set. BudgetedSSAM uses it
// because its budget-filtered selection state must not leak into the
// threshold (report-independence).
func (kn *kernel) fullCounterfactual(ins *Instance, w int32, opts Options, rs *replayScratch) float64 {
	if opts.payment() == FirstPrice {
		return kn.scaled[w]
	}
	rs.loadInitial(kn, kn.groupOf[w])
	best, pivotal := kn.replayFrom(&rs.replay, w, 0)
	switch {
	case pivotal:
		best = reservePayment(ins, kn.scaled, int(w), opts)
	case best < kn.scaled[w]:
		best = kn.scaled[w]
	}
	if kn.tracer != nil {
		// Checkpoint miss by design: the budgeted selection path diverges
		// from the truthful run, so this replay started from scratch.
		kn.tracer.Emit(obs.PaymentReplay{
			Winner: int(w), Bidder: ins.Bids[w].Bidder, Payment: best,
			CheckpointHit: false, Pivotal: pivotal,
		})
	}
	return best
}

// computePayments fills payments[w] for every winner of the completed
// selection run. Each winner's replay depends only on the immutable flat
// view, its checkpoint, and its winner position — the worker's follower
// re-derives the same checkpoint state whichever winners it serves — so
// replays fan out across a bounded worker pool with bit-identical results
// at every Parallelism level (each replay performs the same float64
// operation sequence regardless of scheduling; results are assembled
// serially).
func (kn *kernel) computePayments(ins *Instance, opts Options, payments map[int]float64) {
	winners := kn.winners
	if len(winners) == 0 {
		return
	}
	if opts.payment() == FirstPrice {
		for _, w := range winners {
			payments[w] = kn.scaled[w]
		}
		return
	}
	workers := opts.parallelism()
	if workers > len(winners) {
		workers = len(winners)
	}
	if workers <= 1 {
		rs := replayScratchPool.Get().(*replayScratch)
		rs.startFollower(kn)
		for s, w := range winners {
			payments[w] = kn.criticalValue(ins, int32(w), s, opts, rs)
		}
		replayScratchPool.Put(rs)
		return
	}
	results := make([]float64, len(winners))
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rs := replayScratchPool.Get().(*replayScratch)
			defer replayScratchPool.Put(rs)
			rs.startFollower(kn)
			for {
				s := int(next.Add(1)) - 1
				if s >= len(winners) {
					return
				}
				results[s] = kn.criticalValue(ins, int32(winners[s]), s, opts, rs)
			}
		}()
	}
	wg.Wait()
	for s, w := range winners {
		payments[w] = results[s]
	}
}
