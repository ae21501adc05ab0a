package core

import (
	"fmt"
	"math"

	"edgeauction/internal/obs"
)

// This file implements the budgeted variant of the single-stage auction
// described in §IV of the paper: "This process continues until either the
// total budget W is depleted or the last microservice has been processed."
// The platform has a hard payment budget per round; the mechanism must
// remain truthful and individually rational while never paying out more
// than the budget, at the price of possibly leaving demand uncovered.
//
// Design: winners are selected greedily as in SSAM; after each tentative
// selection the critical-value payment is computed, and if the cumulative
// payment would exceed the budget the bid is rejected and its bidder
// excluded. The mechanism is individually rational and never overspends,
// and whenever the budget does NOT bind it coincides exactly with SSAM
// (hence truthful).
//
// LIMITATION (documented honestly): when the budget binds mid-run,
// dominant-strategy truthfulness can fail — a bidder's report shifts the
// selection order and therefore which payments have consumed the budget by
// the time its turn comes. This is inherent to naive budget stopping rules;
// provably truthful budget-feasible procurement needs Singer-style
// proportional-share mechanisms that sacrifice a constant factor of
// coverage. The paper's own remark ("until the total budget W is depleted",
// §IV) carries the same gap; the TruthfulnessSweep experiment quantifies
// it empirically.

// BudgetedOutcome extends Outcome with budget accounting.
type BudgetedOutcome struct {
	Outcome
	// Budget is the payment budget W the auction ran with.
	Budget float64
	// BudgetSpent is the total payment committed (≤ Budget).
	BudgetSpent float64
	// UncoveredDemand is the total coverage left unprocured when the
	// budget ran out (0 when the demand was fully covered).
	UncoveredDemand int
	// RejectedByBudget lists bid indices that won on price but were
	// rejected because their payment did not fit the remaining budget.
	RejectedByBudget []int
}

// BudgetedSSAM runs the single-stage auction under a hard payment budget.
// It returns an outcome even when the demand cannot be fully covered —
// callers inspect UncoveredDemand. A non-positive budget buys nothing.
func BudgetedSSAM(ins *Instance, budget float64, opts Options) (*BudgetedOutcome, error) {
	if math.IsNaN(budget) || math.IsInf(budget, 0) {
		return nil, fmt.Errorf("core: invalid budget %v", budget)
	}
	scaled := make([]float64, len(ins.Bids))
	for i, b := range ins.Bids {
		scaled[i] = b.Price
	}

	kn := kernelPool.Get().(*kernel)
	defer kn.release()
	if err := kn.build(ins, scaled, opts); err != nil {
		return nil, err
	}
	out := &BudgetedOutcome{
		Outcome: Outcome{Payments: make(map[int]float64)},
		Budget:  budget,
	}
	rs := replayScratchPool.Get().(*replayScratch)
	defer replayScratchPool.Put(rs)

	for kn.main.deficit > 0 {
		best, score, marginal := kn.main.popBest(kn)
		if best < 0 {
			break // market exhausted; remaining demand stays uncovered
		}
		winner := &ins.Bids[best]

		// The critical value must be computed against the full candidate
		// set semantics of SSAM (counterfactual without the bidder), not
		// against the budget-filtered set: filtering by budget depends on
		// other payments, which depend on reports, and folding that into
		// the threshold would break report-independence. The budgeted
		// selection path diverges from plain SSAM once the budget binds,
		// so the replay runs from scratch rather than from a checkpoint.
		pay := kn.fullCounterfactual(ins, best, opts, rs)
		if out.BudgetSpent+pay > budget {
			// Cannot afford this winner: reject the bidder entirely.
			out.RejectedByBudget = append(out.RejectedByBudget, int(best))
			kn.main.banned[kn.groupOf[best]] = true
			continue
		}

		if kn.tracer != nil {
			kn.tracer.Emit(obs.GreedyPick{
				Iteration: len(out.Winners), Bid: int(best),
				Bidder: winner.Bidder, Alt: winner.Alt,
				Score: score, Marginal: marginal, ScaledPrice: scaled[best],
			})
		}
		kn.main.commit(kn, best, nil)
		out.Winners = append(out.Winners, int(best))
		out.Payments[int(best)] = pay
		out.BudgetSpent += pay
		out.SocialCost += winner.Price
		out.ScaledCost += winner.Price
	}

	out.UncoveredDemand = kn.main.deficit
	return out, nil
}

// CoverageFraction returns the share of total demand procured, 1 for a
// fully covered round (and for rounds with zero demand).
func (o *BudgetedOutcome) CoverageFraction(ins *Instance) float64 {
	total := ins.TotalDemand()
	if total == 0 {
		return 1
	}
	return float64(total-o.UncoveredDemand) / float64(total)
}
