package core

import (
	"fmt"
	"math"
	"sort"
)

// This file implements a (1−ε)-optimal posted-price mechanism in the
// spirit of Zhang et al. (arXiv 1611.07619): the platform posts a single
// take-it-or-leave-it price π drawn from an (1+ε)-geometric grid over the
// cost prior's support, bidders whose reported cost is at most π accept,
// and accepted supply is allocated to the demand by a price-independent
// greedy. Every winner is paid the posted price.
//
// Truthfulness. The posted level is computed ONLY from the prior
// (PriceLo, PriceHi), the demand vector and the bids' cover structure —
// never from any reported price — and the allocation among accepters
// orders bids by marginal coverage with index tie-breaks, again ignoring
// prices. A bidder's report therefore influences nothing but its own
// acceptance: reporting at most π yields the same posted price, the same
// candidate order and the same payment π, while reporting above π yields
// utility zero. Truthful reporting (Price = TrueCost) is a best response
// for single-bid bidders; the property test in mechanism_test.go checks
// this across seeded instances. (Bidders with several alternative bids
// can in principle steer which of their own alternatives wins — the same
// J≥2 caveat SSAM's Theorem 4 scope carries.)
//
// (1−ε)-optimality. The grid's geometric spacing means some grid level
// is within a (1+ε) factor of any target price in [PriceLo, PriceHi], so
// the expected-revenue loss against the best fixed posted price is a
// factor ε — the classic posted-price guarantee under a known prior.
// There is deliberately NO escalation on infeasibility: re-posting a
// higher level after observing rejections would make the level depend on
// reports and reopen a pivotal-manipulation channel, so an uncovered
// instance returns ErrInfeasible instead.

// PostedPriceConfig parameterizes the posted-price mechanism. The zero
// value selects the defaults matching internal/workload's cost prior.
type PostedPriceConfig struct {
	// Epsilon is the geometric grid factor (levels lo, lo(1+ε), …, hi).
	// Defaults to 0.1.
	Epsilon float64 `json:"epsilon,omitempty"`
	// PriceLo and PriceHi bound the support of the cost prior the level
	// is chosen from. Defaults 10 and 35 (the workload generator's cost
	// range including the reserve ladder).
	PriceLo float64 `json:"price_lo,omitempty"`
	PriceHi float64 `json:"price_hi,omitempty"`
	// Safety scales the expected-supply requirement when picking the
	// level: the mechanism posts the lowest grid level whose expected
	// accepting supply covers Safety × total demand. Defaults to 1.5;
	// higher values post higher prices and fail less often.
	Safety float64 `json:"safety,omitempty"`
}

// withDefaults fills zero fields.
func (c PostedPriceConfig) withDefaults() PostedPriceConfig {
	if c.Epsilon <= 0 {
		c.Epsilon = 0.1
	}
	if c.PriceLo <= 0 {
		c.PriceLo = 10
	}
	if c.PriceHi <= c.PriceLo {
		c.PriceHi = c.PriceLo + 25
	}
	if c.Safety <= 0 {
		c.Safety = 1.5
	}
	return c
}

// maxPostedLevels bounds the geometric grid PostedLevel walks one level
// at a time.
const maxPostedLevels = 1 << 20

// validate rejects an effective (default-filled) configuration whose grid
// walk would not end in reasonable time: a non-finite field, or more than
// maxPostedLevels levels from PriceLo to PriceHi. The walk multiplies by
// the float64 1+ε, so the count uses that factor: an ε too small to move
// 1+ε off 1 yields infinitely many levels, however narrow the range.
func (c PostedPriceConfig) validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{{"epsilon", c.Epsilon}, {"price_lo", c.PriceLo}, {"price_hi", c.PriceHi}, {"safety", c.Safety}} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("core: posted-price %s %v is not finite", f.name, f.v)
		}
	}
	if levels := math.Log(c.PriceHi/c.PriceLo) / math.Log(1+c.Epsilon); !(levels <= maxPostedLevels) {
		return fmt.Errorf("core: posted-price grid from %v to %v in steps of 1+%v has more than %d levels",
			c.PriceLo, c.PriceHi, c.Epsilon, maxPostedLevels)
	}
	return nil
}

// PostedPrice is the posted-price mechanism. It is stateless: each Clear
// call computes its level from the instance at hand.
type PostedPrice struct {
	cfg PostedPriceConfig
}

// NewPostedPrice returns a posted-price mechanism with defaults applied.
func NewPostedPrice(cfg PostedPriceConfig) *PostedPrice {
	return &PostedPrice{cfg: cfg.withDefaults()}
}

// Config returns the effective (default-filled) configuration.
func (p *PostedPrice) Config() PostedPriceConfig { return p.cfg }

// Name implements Mechanism.
func (p *PostedPrice) Name() string { return NamePostedPrice }

// PostedLevel computes the price π posted for an instance. It reads the
// demand vector and the bids' cover structure (counts, units, cover
// sets) but never a reported price, which is what keeps the mechanism
// truthful: no report can move the level. It walks the grid level by
// level, so it assumes a configuration that Clear accepts.
func (p *PostedPrice) PostedLevel(ins *Instance) float64 {
	demand := float64(ins.TotalDemand())
	if demand == 0 {
		return p.cfg.PriceLo
	}
	// Potential supply if every bidder accepted: each bidder contributes
	// its best single bid's useful coverage (units capped at demand).
	perBidder := make(map[int]float64, len(ins.Bids))
	for i := range ins.Bids {
		b := &ins.Bids[i]
		var useful float64
		for _, k := range b.Covers {
			u := b.Units
			if d := ins.Demand[k]; u > d {
				u = d
			}
			useful += float64(u)
		}
		if useful > perBidder[b.Bidder] {
			perBidder[b.Bidder] = useful
		}
	}
	bidders := make([]int, 0, len(perBidder))
	for id := range perBidder {
		bidders = append(bidders, id)
	}
	sort.Ints(bidders)
	var supply float64
	for _, id := range bidders {
		supply += perBidder[id]
	}
	// Walk the geometric grid lo, lo(1+ε), … and post the first level
	// whose expected accepting supply under the uniform prior
	// F(π) = (π−lo)/(hi−lo) covers Safety × demand. The top level is
	// PriceHi, where F = 1 and everything accepts.
	need := p.cfg.Safety * demand
	span := p.cfg.PriceHi - p.cfg.PriceLo
	for level := p.cfg.PriceLo; level < p.cfg.PriceHi; level *= 1 + p.cfg.Epsilon {
		accept := (level - p.cfg.PriceLo) / span
		if accept*supply >= need {
			return level
		}
	}
	return p.cfg.PriceHi
}

// Clear implements Mechanism: post the level, let bids at or below it
// accept, and cover the demand with a price-independent greedy (marginal
// coverage descending, bid index ascending, one bid per bidder). Winners
// are paid the posted price. Returns ErrInfeasible when the accepting
// supply cannot cover the demand — by design there is no escalation — and
// an error for a configuration whose grid is not finite and bounded.
func (p *PostedPrice) Clear(ins *Instance, opts Options) (*Outcome, error) {
	if err := p.cfg.validate(); err != nil {
		return nil, err
	}
	if err := ins.Validate(); err != nil {
		return nil, err
	}
	level := p.PostedLevel(ins)

	accepting := make([]int, 0, len(ins.Bids))
	for i := range ins.Bids {
		if ins.Bids[i].Price <= level {
			accepting = append(accepting, i)
		}
	}

	residual := append([]int(nil), ins.Demand...)
	deficit := 0
	for _, d := range residual {
		deficit += d
	}
	out := &Outcome{Payments: make(map[int]float64)}
	wonBidder := make(map[int]struct{})
	for deficit > 0 {
		best, bestMarginal := -1, 0
		for _, i := range accepting {
			b := &ins.Bids[i]
			if _, dup := wonBidder[b.Bidder]; dup {
				continue
			}
			marginal := 0
			for _, k := range b.Covers {
				u := b.Units
				if r := residual[k]; u > r {
					u = r
				}
				marginal += u
			}
			if marginal > bestMarginal {
				best, bestMarginal = i, marginal
			}
		}
		if best < 0 {
			return nil, ErrInfeasible
		}
		b := &ins.Bids[best]
		wonBidder[b.Bidder] = struct{}{}
		out.Winners = append(out.Winners, best)
		out.Payments[best] = level
		out.SocialCost += b.Price
		for _, k := range b.Covers {
			u := b.Units
			if r := residual[k]; u > r {
				u = r
			}
			residual[k] -= u
			deficit -= u
		}
	}
	out.ScaledCost = out.SocialCost
	return out, nil
}
