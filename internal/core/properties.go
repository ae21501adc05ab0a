package core

import (
	"fmt"
	"sort"
)

// This file implements executable checks for the economic properties the
// paper proves (Definitions 2-5, Theorems 4-5). Tests and the experiment
// harness run them on every produced outcome; a non-nil error means the
// mechanism implementation violated a proved property and is a bug.

// VerifyFeasible checks primal feasibility of an outcome against its
// instance (Theorem 2): every needy microservice's demand is covered, each
// bidder wins at most one bid, winners are valid distinct bid indices, and
// only winners receive payments.
func VerifyFeasible(ins *Instance, out *Outcome) error {
	theta := make([]int, len(ins.Demand))
	seenBid := make(map[int]struct{}, len(out.Winners))
	seenBidder := make(map[int]struct{}, len(out.Winners))
	for _, w := range out.Winners {
		if w < 0 || w >= len(ins.Bids) {
			return fmt.Errorf("core: winner index %d out of range [0,%d)", w, len(ins.Bids))
		}
		if _, dup := seenBid[w]; dup {
			return fmt.Errorf("core: bid %d selected twice", w)
		}
		seenBid[w] = struct{}{}
		b := &ins.Bids[w]
		if _, dup := seenBidder[b.Bidder]; dup {
			return fmt.Errorf("core: bidder %d wins more than one bid (constraint 9)", b.Bidder)
		}
		seenBidder[b.Bidder] = struct{}{}
		for _, k := range b.Covers {
			theta[k] += b.Units
		}
	}
	for k, d := range ins.Demand {
		if theta[k] < d {
			return fmt.Errorf("core: needy microservice %d covered %d < demand %d (constraint 10)", k, theta[k], d)
		}
	}
	for idx := range out.Payments {
		if _, ok := seenBid[idx]; !ok {
			return fmt.Errorf("core: losing bid %d received a payment", idx)
		}
	}
	return nil
}

// VerifyIndividualRationality checks Definition 2 / Theorem 5: every
// winner's payment covers the price of its winning bid, so a truthful
// bidder's utility is non-negative. scaled may be nil, in which case raw
// prices are used (the standalone SSAM setting).
func VerifyIndividualRationality(ins *Instance, out *Outcome, scaled []float64) error {
	const eps = 1e-9
	for _, w := range out.Winners {
		price := ins.Bids[w].Price
		if scaled != nil {
			price = scaled[w]
		}
		if pay := out.Payments[w]; pay < price-eps {
			return fmt.Errorf("core: winner bid %d paid %.6f < price %.6f", w, pay, price)
		}
	}
	return nil
}

// VerifyCapacity checks constraint (11) across an online run: no bidder's
// cumulative coverage (Σ |S_ij| over its winning bids) exceeds Θ_i.
func VerifyCapacity(cfg MSOAConfig, rounds []Round, results []*RoundResult) error {
	used := make(map[int]int)
	for ri, res := range results {
		if res.Err != nil {
			continue
		}
		ins := rounds[ri].Instance
		for _, w := range res.Outcome.Winners {
			b := &ins.Bids[w]
			used[b.Bidder] += len(b.Covers)
			theta, limited := cfg.capacityOf(b.Bidder)
			if limited && used[b.Bidder] > theta {
				return fmt.Errorf("core: bidder %d used %d coverage slots > capacity %d after round %d (constraint 11)",
					b.Bidder, used[b.Bidder], theta, res.T)
			}
		}
	}
	return nil
}

// VerifyWindows checks that no bid outside its bidder's participation
// window [t⁻, t⁺] ever won.
func VerifyWindows(cfg MSOAConfig, rounds []Round, results []*RoundResult) error {
	for ri, res := range results {
		if res.Err != nil {
			continue
		}
		ins := rounds[ri].Instance
		for _, w := range res.Outcome.Winners {
			b := &ins.Bids[w]
			if win, ok := cfg.Windows[b.Bidder]; ok && !win.Contains(res.T) {
				return fmt.Errorf("core: bidder %d won in round %d outside window [%d,%d]",
					b.Bidder, res.T, win.Arrive, win.Depart)
			}
		}
	}
	return nil
}

// BuyerCharges distributes the platform's payment outlay over the needy
// microservices in proportion to their covered demand, marked up by
// margin ≥ 0 (the platform's cut). By construction the total charge is
// (1+margin) × total payment, so Definition 5 (no economic loss) holds;
// VerifyNoEconomicLoss re-checks it numerically.
func BuyerCharges(ins *Instance, out *Outcome, margin float64) map[int]float64 {
	total := out.TotalPayment() * (1 + margin)
	demand := ins.TotalDemand()
	charges := make(map[int]float64, len(ins.Demand))
	if demand == 0 {
		return charges
	}
	perUnit := total / float64(demand)
	for k, d := range ins.Demand {
		if d > 0 {
			charges[k] = perUnit * float64(d)
		}
	}
	return charges
}

// VerifyNoEconomicLoss checks Definition 5: the buyers' charges cover the
// sellers' payments.
func VerifyNoEconomicLoss(out *Outcome, charges map[int]float64) error {
	const eps = 1e-6
	keys := make([]int, 0, len(charges))
	for k := range charges {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	var charged float64
	for _, k := range keys {
		charged += charges[k]
	}
	if paid := out.TotalPayment(); charged < paid-eps {
		return fmt.Errorf("core: buyers charged %.6f < sellers paid %.6f (economic loss)", charged, paid)
	}
	return nil
}

// VerifyCertificate checks the primal-dual certificate: Primal equals the
// outcome's scaled cost, DualObjective·W·Ξ equals Primal, and the fitted
// dual respects every bid's constraint (Lemma 1).
func VerifyCertificate(ins *Instance, out *Outcome, scaled []float64) error {
	const eps = 1e-6
	cert := out.Dual
	if cert == nil {
		return fmt.Errorf("core: outcome carries no dual certificate")
	}
	if diff := cert.Primal - out.ScaledCost; diff > eps || diff < -eps {
		return fmt.Errorf("core: certificate primal %.6f != scaled cost %.6f", cert.Primal, out.ScaledCost)
	}
	if cert.DualObjective > cert.Primal+eps {
		return fmt.Errorf("core: dual objective %.6f exceeds primal %.6f (weak duality broken)",
			cert.DualObjective, cert.Primal)
	}
	if scaled == nil {
		scaled = make([]float64, len(ins.Bids))
		for i, b := range ins.Bids {
			scaled[i] = b.Price
		}
	}
	if idx, violation := cert.CheckFeasible(ins, scaled); idx >= 0 {
		return fmt.Errorf("core: dual constraint violated at bid %d by %.6f (Lemma 1)", idx, violation)
	}
	return nil
}
