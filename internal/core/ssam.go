package core

import (
	"fmt"
	"math"
	"runtime"

	"edgeauction/internal/obs"
)

// GreedyMetric selects the bid-ranking rule used by the greedy winner
// selection loop. The paper's rule is PricePerCoverage; LowestPrice exists
// for the ablation benchmarks.
type GreedyMetric int

const (
	// PricePerCoverage ranks bids by scaled price divided by marginal
	// coverage utility (Algorithm 1, line 4). This is the paper's rule and
	// carries the H_n-style approximation guarantee.
	PricePerCoverage GreedyMetric = iota + 1
	// LowestPrice ranks bids by scaled price alone, ignoring how much
	// coverage they contribute. Used only by ablation experiments.
	LowestPrice
)

// PaymentRule selects how winners are remunerated. The paper's rule is
// CriticalValue; FirstPrice exists for the ablation benchmarks.
type PaymentRule int

const (
	// CriticalValue pays each winner the threshold price at which it would
	// stop winning (Algorithm 1, lines 6-7; Myerson payments). Truthful.
	CriticalValue PaymentRule = iota + 1
	// FirstPrice pays each winner exactly its (scaled) bid price. Not
	// truthful; used only by ablation experiments.
	FirstPrice
)

// Options configures a single-stage auction run. The zero value selects the
// paper's mechanism with an automatic reserve.
type Options struct {
	// Reserve is the payment granted to a winner that faces no competing
	// runner-up bid (its critical value is unbounded). When Reserve is zero
	// AND ReserveSet is false the reserve is auto-derived: the maximum
	// SCALED price among OTHER bidders' bids is used; if the winner is the
	// only bidder, its own (scaled) price is used. Set ReserveSet to make
	// any Reserve value — including an explicit zero — binding.
	Reserve float64
	// ReserveSet marks Reserve as explicitly configured. It exists because
	// Reserve == 0 alone cannot distinguish "unset, auto-derive from the
	// competition" from "the platform grants no reserve premium": with
	// ReserveSet true and Reserve 0, a pivotal winner is paid exactly its
	// own scaled report.
	ReserveSet bool
	// Metric is the greedy ranking rule; zero means PricePerCoverage.
	Metric GreedyMetric
	// Payment is the remuneration rule; zero means CriticalValue.
	Payment PaymentRule
	// SkipCertificate disables dual-certificate bookkeeping. The experiment
	// sweeps that only need costs and payments set this to avoid the extra
	// allocations in hot benchmark loops.
	SkipCertificate bool
	// Parallelism bounds the number of worker goroutines used for the
	// critical-value payment phase, the mechanism's asymptotic hot path
	// (one counterfactual greedy replay per winner, resumed from the
	// winner's checkpoint in the truthful run — see kernel.go). Each
	// replay is independent of the others, so payments fan out across a
	// bounded pool with bit-identical results at every level. Zero means
	// runtime.GOMAXPROCS(0); 1 forces the serial path.
	Parallelism int
	// Tracer receives the auction's observability events: one GreedyPick
	// per winning iteration, one PaymentReplay per critical-value
	// counterfactual, and one Certificate per run (when certificates are
	// on). Nil disables tracing — every hook site guards with a nil check,
	// so the disabled path costs one predictable branch and never
	// allocates. Implementations must be safe for concurrent use: the
	// parallel payment phase emits from its worker goroutines. Tracing
	// never changes outcomes.
	Tracer obs.Tracer
}

func (o Options) metric() GreedyMetric {
	if o.Metric == 0 {
		return PricePerCoverage
	}
	return o.Metric
}

func (o Options) payment() PaymentRule {
	if o.Payment == 0 {
		return CriticalValue
	}
	return o.Payment
}

func (o Options) parallelism() int {
	if o.Parallelism <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return o.Parallelism
}

// SSAM runs the single-stage auction mechanism (Algorithm 1) on ins using
// the bids' own prices as the scaled prices, i.e. the standalone offline
// setting of §IV-C. It returns ErrInfeasible if the bids cannot cover the
// residual demand.
func SSAM(ins *Instance, opts Options) (*Outcome, error) {
	scaled := make([]float64, len(ins.Bids))
	for i, b := range ins.Bids {
		scaled[i] = b.Price
	}
	return ssamScaled(ins, scaled, opts)
}

// ssamScaled is the shared implementation behind SSAM and each MSOA round:
// winner selection and payments operate on the scaled prices ∇_ij, while
// Outcome.SocialCost is accounted with the raw prices J_ij (Lemma 4).
//
// It runs on the pooled flat kernel (kernel.go): a CSR cover view with a
// lazy-rescore heap for selection, per-iteration checkpoints feeding the
// critical-value payment phase, and a bounded worker pool fanning the
// per-winner replays out. The straightforward
// implementation it is bit-identical to lives in reference_test.go and is
// exercised against this path by the differential property/fuzz tests.
func ssamScaled(ins *Instance, scaled []float64, opts Options) (*Outcome, error) {
	if len(scaled) != len(ins.Bids) {
		return nil, fmt.Errorf("core: scaled price vector has %d entries for %d bids", len(scaled), len(ins.Bids))
	}
	var cert *certBuilder
	if !opts.SkipCertificate {
		cert = newCertBuilder(ins, scaled)
	}
	kn := kernelPool.Get().(*kernel)
	defer kn.release()
	if err := kn.build(ins, scaled, opts); err != nil {
		return nil, err
	}
	out := &Outcome{}
	if err := kn.selectWinners(ins, opts, out, cert); err != nil {
		return nil, err
	}
	out.Payments = make(map[int]float64, len(out.Winners))

	// Payments are computed after selection: each winner's critical value
	// requires a counterfactual greedy run without its bidder, replayed
	// from the winner's own checkpoint. The replays are mutually
	// independent, so they fan out across Options.Parallelism workers.
	kn.computePayments(ins, opts, out.Payments)

	if cert != nil {
		out.Dual = cert.finish(out, kn.groupStart, kn.groupBids)
		if opts.Tracer != nil {
			opts.Tracer.Emit(obs.Certificate{
				Ratio:            out.Dual.Ratio(),
				TheoreticalRatio: out.Dual.TheoreticalRatio(),
				Primal:           out.Dual.Primal,
				DualObjective:    out.Dual.DualObjective,
			})
		}
	}
	return out, nil
}

// reservePayment is the payment to a pivotal winner (no competing coverage
// exists): the configured reserve, the best competing scaled price, or the
// winner's own report — whichever is largest. The payment phase operates
// entirely in the scaled price domain ∇_ij, so the competitor scan must
// too: under MSOA's ψ augmentation a competitor's raw J_ij understates its
// effective price, and deriving the reserve from raw prices under- or
// over-pays pivotal winners relative to every other payment in the round.
// An explicitly configured reserve (ReserveSet, or any non-zero Reserve)
// is used verbatim; only the unset case auto-derives from the competition.
func reservePayment(ins *Instance, scaled []float64, w int, opts Options) float64 {
	reserve := opts.Reserve
	if reserve == 0 && !opts.ReserveSet {
		for i := range ins.Bids {
			if ins.Bids[i].Bidder != ins.Bids[w].Bidder && scaled[i] > reserve {
				reserve = scaled[i]
			}
		}
	}
	if reserve < scaled[w] {
		reserve = scaled[w]
	}
	return reserve
}

// certBuilder accumulates the primal–dual bookkeeping of Algorithm 1
// (lines 13-18) while the greedy loop runs.
type certBuilder struct {
	ins    *Instance
	scaled []float64
	// unitPrices[k] holds f(k, Ŝ): the per-unit price ρ of the iteration
	// that supplied each unit of needy k's coverage, in supply order.
	unitPrices [][]float64
	// unitTimes[k] holds the iteration number at which each unit of k was
	// supplied (for the dual-feasibility ordering argument).
	unitTimes [][]int
	iteration int
	// iterPrice[t] is ρ of iteration t (monotonically non-decreasing in t
	// for the PricePerCoverage metric).
	iterPrice []float64
}

func newCertBuilder(ins *Instance, scaled []float64) *certBuilder {
	return &certBuilder{
		ins:        ins,
		scaled:     scaled,
		unitPrices: make([][]float64, len(ins.Demand)),
		unitTimes:  make([][]int, len(ins.Demand)),
	}
}

func (cb *certBuilder) record(_ int, b *Bid, gains []int, price float64, marginal int) {
	rho := price / float64(marginal)
	cb.iterPrice = append(cb.iterPrice, rho)
	for i, k := range b.Covers {
		for g := 0; g < gains[i]; g++ {
			cb.unitPrices[k] = append(cb.unitPrices[k], rho)
			cb.unitTimes[k] = append(cb.unitTimes[k], cb.iteration)
		}
	}
	cb.iteration++
}

// finish fits the dual certificate. groupStart/groupBids are the kernel's
// bidder groups (kernel.groupBidders): group g's bids, in ascending bid
// order, with groups in ascending bidder order.
func (cb *certBuilder) finish(out *Outcome, groupStart, groupBids []int32) *DualCertificate {
	ins := cb.ins
	cert := &DualCertificate{
		UnitPrices: cb.unitPrices,
		UnitTimes:  cb.unitTimes,
		W:          harmonic(maxCoverCapacity(ins)),
		Xi:         1,
		Primal:     out.ScaledCost,
	}
	groups := len(groupStart) - 1
	group := func(g int) []int32 { return groupBids[groupStart[g]:groupStart[g+1]] }

	// Ξ is the largest ratio of a bidder's most to least expensive scaled
	// price. With one bid per bidder Ξ = 1 and the certificate collapses to
	// the plain H_n bound, as the paper notes after Theorem 3.
	for g := 0; g < groups; g++ {
		bids := group(g)
		lo, hi := cb.scaled[bids[0]], cb.scaled[bids[0]]
		for _, i := range bids[1:] {
			p := cb.scaled[i]
			if p < lo {
				lo = p
			}
			if p > hi {
				hi = p
			}
		}
		if lo > 0 && hi/lo > cert.Xi {
			cert.Xi = hi / lo
		}
	}

	// Dual fitting against the LP dual of (12):
	//   max Σ_k X_k·y_k − Σ_i z_i
	//   s.t. Σ_{k ∈ S_ij} a_ij·y_k − z_i ≤ ∇_ij  for every bid (i,j)
	//        y, z ≥ 0.
	// Base direction: y_k proportional to the mean greedy unit price of
	// k's coverage (Lemma 1's dual fitting). Two feasible candidates are
	// compared and the better kept — either way the certificate is
	// feasible BY CONSTRUCTION and weak duality yields an unconditional
	// bound: OPT ≥ DualObjective.
	//
	//  (a) the largest uniform scale s with z ≡ 0: s = min_i ∇_i/L_i
	//      where L_i = Σ_{k∈S_i} a_i·rawY_k — usually much tighter than
	//      the worst-case analysis;
	//  (b) the analysis scale 1/(W·Ξ) with z absorbing per-bidder excess
	//      (the literal Lemma 1 fitting).
	rawY := make([]float64, len(ins.Demand))
	for k, prices := range cb.unitPrices {
		if len(prices) == 0 {
			continue
		}
		var sum float64
		for _, rho := range prices {
			sum += rho
		}
		rawY[k] = sum / float64(len(prices))
	}
	lhs := make([]float64, len(ins.Bids))
	for i := range ins.Bids {
		b := &ins.Bids[i]
		for _, k := range b.Covers {
			lhs[i] += float64(b.Units) * rawY[k]
		}
	}
	var demandDotY float64 // Σ_k X_k·rawY_k
	for k, d := range ins.Demand {
		demandDotY += float64(d) * rawY[k]
	}

	// Candidate (a): uniform scaling, no bidder slack.
	scaleA := math.Inf(1)
	for i := range ins.Bids {
		if lhs[i] > 0 {
			if s := cb.scaled[i] / lhs[i]; s < scaleA {
				scaleA = s
			}
		}
	}
	if math.IsInf(scaleA, 1) {
		scaleA = 0
	}
	objA := scaleA * demandDotY

	// Candidate (b): analysis scaling with per-bidder slack z, the largest
	// excess over the bidder's bids (0 when none is positive). The slack
	// is subtracted group by group, in ascending bidder order: float64
	// addition is not associative, and the certificate must be
	// deterministic (the differential tests compare it bit for bit).
	// Subtracting a zero slack leaves objB unchanged.
	scaleB := 1 / (cert.W * cert.Xi)
	objB := scaleB * demandDotY
	zB := make([]float64, groups)
	for g := range zB {
		for _, i := range group(g) {
			if excess := lhs[i]*scaleB - cb.scaled[i]; excess > zB[g] {
				zB[g] = excess
			}
		}
		objB -= zB[g]
	}

	scale, z, obj := scaleA, map[int]float64{}, objA
	if objB > objA {
		scale, obj = scaleB, objB
		for g, zg := range zB {
			if zg > 0 {
				z[ins.Bids[group(g)[0]].Bidder] = zg
			}
		}
	}
	cert.Y = make([]float64, len(rawY))
	for k := range rawY {
		cert.Y[k] = rawY[k] * scale
	}
	cert.Z = z
	cert.DualObjective = obj
	return cert
}

// harmonic returns H_n = Σ_{i=1..n} 1/i, with H_0 = 1 so that the
// certificate ratio is always at least 1.
func harmonic(n int) float64 {
	if n < 1 {
		return 1
	}
	h := 0.0
	for i := 1; i <= n; i++ {
		h += 1 / float64(i)
	}
	return h
}

// maxCoverCapacity returns the largest total coverage any single bid can
// supply: max over bids of Σ_{k∈Covers} min(Units, X_k). This is the "n" of
// the H_n set-multicover bound.
func maxCoverCapacity(ins *Instance) int {
	maxCap := 0
	for _, b := range ins.Bids {
		c := 0
		for _, k := range b.Covers {
			if k < 0 || k >= len(ins.Demand) {
				continue // defensive: structurally invalid cover entry
			}
			u := b.Units
			if u > ins.Demand[k] {
				u = ins.Demand[k]
			}
			c += u
		}
		if c > maxCap {
			maxCap = c
		}
	}
	return maxCap
}

// DualCertificate is the primal–dual approximation certificate produced by
// SSAM (Theorem 3 / Lemma 1). It carries an explicit feasible solution
// (Y, Z) of the LP dual of (12), so by weak duality the offline optimum is
// at least DualObjective, and Primal/DualObjective is an instance-specific
// CERTIFIED approximation ratio — no trust in the analysis required.
type DualCertificate struct {
	// UnitPrices[k] lists f(k,·): the per-unit greedy price of each
	// coverage unit supplied to needy microservice k, in supply order.
	UnitPrices [][]float64
	// UnitTimes[k] lists the greedy iteration index of each unit.
	UnitTimes [][]int
	// W is the harmonic number H_c of the maximum per-bid coverage
	// capacity — the W_i of Theorem 3.
	W float64
	// Xi is the maximum per-bidder price spread (Ξ of Theorem 3); 1 when
	// every bidder submits a single bid.
	Xi float64
	// Y holds the fitted dual variable y_k per needy microservice
	// (coverage constraint (13)).
	Y []float64
	// Z holds the fitted dual variable z_i per bidder (one-bid constraint
	// (14)), absorbing any per-bid constraint excess.
	Z map[int]float64
	// Primal is the scaled-price objective value achieved by the greedy.
	Primal float64
	// DualObjective is Σ_k X_k·y_k − Σ_i z_i, a lower bound on OPT.
	DualObjective float64
}

// Ratio returns the certified approximation ratio Primal/DualObjective, or
// the theoretical W·Ξ when the dual objective is non-positive (degenerate
// instances with near-zero prices).
func (c *DualCertificate) Ratio() float64 {
	if c.DualObjective <= 0 {
		return c.TheoreticalRatio()
	}
	r := c.Primal / c.DualObjective
	if r < 1 {
		return 1
	}
	return r
}

// TheoreticalRatio returns the paper's closed-form bound W·Ξ.
func (c *DualCertificate) TheoreticalRatio() float64 { return c.W * c.Xi }

// CheckFeasible verifies that (Y, Z) satisfies every dual constraint
// Σ_{k∈S_ij} a_ij·y_k − z_i ≤ ∇_ij and y, z ≥ 0. It returns the first
// violated bid index and the violation amount, or (-1, 0) when feasible.
// Because finish constructs Z to absorb violations, a non-negative result
// here always indicates an implementation bug.
func (c *DualCertificate) CheckFeasible(ins *Instance, scaled []float64) (int, float64) {
	const eps = 1e-9
	for k, y := range c.Y {
		if y < -eps {
			return k, -y
		}
	}
	for _, z := range c.Z {
		if z < -eps {
			return -2, -z
		}
	}
	for i := range ins.Bids {
		b := &ins.Bids[i]
		var lhs float64
		for _, k := range b.Covers {
			lhs += float64(b.Units) * c.Y[k]
		}
		lhs -= c.Z[b.Bidder]
		if lhs > scaled[i]+eps {
			return i, lhs - scaled[i]
		}
	}
	return -1, 0
}
