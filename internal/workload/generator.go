package workload

import (
	"fmt"

	"edgeauction/internal/core"
)

// Class distinguishes the two microservice types of §V-A.
type Class int

const (
	// DelaySensitive microservices generate Poisson requests with mean 5
	// and receive scheduling priority.
	DelaySensitive Class = iota + 1
	// DelayTolerant microservices generate Poisson requests with mean 10.
	DelayTolerant
)

// String names the class.
func (c Class) String() string {
	switch c {
	case DelaySensitive:
		return "delay-sensitive"
	case DelayTolerant:
		return "delay-tolerant"
	default:
		return "unknown"
	}
}

// ArrivalMean returns the Poisson mean of the class per §V-A.
func (c Class) ArrivalMean() float64 {
	switch c {
	case DelaySensitive:
		return 5
	case DelayTolerant:
		return 10
	default:
		return 0
	}
}

// InstanceConfig parameterizes single-stage auction instance generation,
// defaulting to the paper's settings (§V-A): bid prices uniform in [10,35],
// demands in [10,40], J=2 alternative bids per bidder.
type InstanceConfig struct {
	// Bidders is the number of microservices offering resources (the
	// paper's |S|, swept over 25-75).
	Bidders int
	// Needy is the number of microservices requiring extra resources
	// (|Ŝ|). Zero means max(1, Bidders/5).
	Needy int
	// BidsPerBidder is J, the number of alternative bids each bidder
	// submits. Zero means 2.
	BidsPerBidder int
	// PriceLo, PriceHi bound the uniform bid price. Zeros mean [10, 35].
	PriceLo, PriceHi float64
	// DemandLo, DemandHi bound the uniform per-needy demand G^t.
	// Zeros mean [10, 40].
	DemandLo, DemandHi int
	// CoverLo, CoverHi bound the uniform size of each bid's covered set.
	// Zeros mean [1, min(4, Needy)].
	CoverLo, CoverHi int
	// UnitsLo, UnitsHi bound the uniform per-bid coverage units a_ij.
	// Zeros mean [1, 10].
	UnitsLo, UnitsHi int
	// PriceJitter, when positive, multiplies each bid's TRUE cost by a
	// uniform factor in [1, 1+PriceJitter] to form the submitted price,
	// modelling untruthful markup. Zero keeps Price == TrueCost.
	PriceJitter float64
	// NoReserve disables the reserve supply. By default every instance
	// includes the platform's fallback pool: for each needy microservice
	// a binary ladder of reserve bids (1, 2, 4, ... units, each from a
	// distinct reserve bidder id ≥ ReserveBidder(Bidders)) priced at
	// PriceHi per unit — the "more expensive alternative" of §IV-E the
	// platform falls back to when the market cannot cover the demand.
	// The ladder guarantees feasibility, acts as the auction's reserve
	// price, and keeps fallback purchases granular (the platform never
	// buys more than 2x the residual it actually needs).
	NoReserve bool
}

// ReserveBidder returns the smallest reserve-pool bidder id for a
// configuration with the given number of market bidders. Every bid with
// Bidder >= this id belongs to the platform's fallback supply.
func ReserveBidder(bidders int) int { return bidders + 1 }

// IsReserveBid reports whether a bid belongs to the platform's fallback
// pool in an instance generated with the given number of market bidders.
func IsReserveBid(b core.Bid, bidders int) bool { return b.Bidder >= ReserveBidder(bidders) }

func (c InstanceConfig) withDefaults() InstanceConfig {
	if c.Needy == 0 {
		c.Needy = c.Bidders / 5
		if c.Needy < 1 {
			c.Needy = 1
		}
	}
	if c.BidsPerBidder == 0 {
		c.BidsPerBidder = 2
	}
	if c.PriceLo == 0 && c.PriceHi == 0 {
		c.PriceLo, c.PriceHi = 10, 35
	}
	if c.DemandLo == 0 && c.DemandHi == 0 {
		c.DemandLo, c.DemandHi = 10, 40
	}
	if c.CoverLo == 0 && c.CoverHi == 0 {
		c.CoverLo = 1
		c.CoverHi = 4
		if c.CoverHi > c.Needy {
			c.CoverHi = c.Needy
		}
	}
	if c.UnitsLo == 0 && c.UnitsHi == 0 {
		c.UnitsLo, c.UnitsHi = 1, 10
	}
	return c
}

// Validate rejects configurations that cannot generate a well-formed
// instance.
func (c InstanceConfig) Validate() error {
	d := c.withDefaults()
	switch {
	case d.Bidders < 1:
		return fmt.Errorf("workload: need at least one bidder, got %d", d.Bidders)
	case d.Needy < 1:
		return fmt.Errorf("workload: need at least one needy microservice, got %d", d.Needy)
	case d.PriceHi < d.PriceLo || d.PriceLo < 0:
		return fmt.Errorf("workload: invalid price range [%v, %v]", d.PriceLo, d.PriceHi)
	case d.DemandHi < d.DemandLo || d.DemandLo < 0:
		return fmt.Errorf("workload: invalid demand range [%d, %d]", d.DemandLo, d.DemandHi)
	case d.CoverHi < d.CoverLo || d.CoverLo < 1 || d.CoverHi > d.Needy:
		return fmt.Errorf("workload: invalid cover range [%d, %d] for %d needy", d.CoverLo, d.CoverHi, d.Needy)
	case d.UnitsHi < d.UnitsLo || d.UnitsLo < 1:
		return fmt.Errorf("workload: invalid units range [%d, %d]", d.UnitsLo, d.UnitsHi)
	}
	return nil
}

// Instance draws one single-stage instance. Bidder ids are 1..Bidders.
// The generated instance is always coverable: after drawing, residual
// uncoverable demand is clamped down to what the bid pool can supply, as a
// real platform would cap its ask at the announced offers.
func Instance(rng *Rand, cfg InstanceConfig) *core.Instance {
	c := cfg.withDefaults()
	ins := &core.Instance{Demand: make([]int, c.Needy)}
	for k := range ins.Demand {
		ins.Demand[k] = rng.UniformInt(c.DemandLo, c.DemandHi)
	}
	for bidder := 1; bidder <= c.Bidders; bidder++ {
		for alt := 0; alt < c.BidsPerBidder; alt++ {
			cover := rng.Subset(c.Needy, rng.UniformInt(c.CoverLo, c.CoverHi))
			trueCost := rng.Uniform(c.PriceLo, c.PriceHi)
			price := trueCost
			if c.PriceJitter > 0 {
				price = trueCost * rng.Uniform(1, 1+c.PriceJitter)
			}
			ins.Bids = append(ins.Bids, core.Bid{
				Bidder:   bidder,
				Alt:      alt,
				Price:    price,
				TrueCost: trueCost,
				Covers:   cover,
				Units:    rng.UniformInt(c.UnitsLo, c.UnitsHi),
			})
		}
	}
	clampDemand(ins)
	if !c.NoReserve {
		AddReserveLadder(ins, ReserveBidder(c.Bidders), c.PriceHi)
	}
	return ins
}

// AddReserveLadder appends the platform's fallback pool to ins: for each
// needy microservice, a binary ladder of single-needy bids (1, 2, 4, ...
// units, up to the first rung that covers the demand) priced at
// unitPrice per coverage unit, each from a distinct bidder id counting up
// from firstBidder so several rungs can win together. Priced at the top
// of the market range, a rung never beats a market bid in the greedy
// (which ranks by price per marginal coverage), and the ladder lets it
// procure any residual with at most 2x overshoot instead of buying one
// whole-market block.
func AddReserveLadder(ins *core.Instance, firstBidder int, unitPrice float64) {
	if ins.TotalDemand() == 0 {
		return
	}
	bidder := firstBidder
	for k, d := range ins.Demand {
		if d == 0 {
			continue
		}
		for units := 1; units/2 < d; units *= 2 {
			price := unitPrice * float64(units)
			ins.Bids = append(ins.Bids, core.Bid{
				Bidder:   bidder,
				Price:    price,
				TrueCost: price,
				Covers:   []int{k},
				Units:    units,
			})
			bidder++
		}
	}
}

// clampDemand lowers per-needy demand to the optimistic supply bound so the
// instance is always coverable (one bid per bidder, best bid per needy).
func clampDemand(ins *core.Instance) {
	supply := make([]int, len(ins.Demand))
	perBidder := make(map[int][]int)
	for _, b := range ins.Bids {
		cov := perBidder[b.Bidder]
		if cov == nil {
			cov = make([]int, len(ins.Demand))
			perBidder[b.Bidder] = cov
		}
		for _, k := range b.Covers {
			if b.Units > cov[k] {
				cov[k] = b.Units
			}
		}
	}
	for _, cov := range perBidder {
		for k, u := range cov {
			supply[k] += u
		}
	}
	for k := range ins.Demand {
		if ins.Demand[k] > supply[k] {
			ins.Demand[k] = supply[k]
		}
	}
}

// OnlineConfig parameterizes a multi-round online scenario (§V-A).
type OnlineConfig struct {
	// Rounds is T; the paper sweeps 1..15 with default 10.
	Rounds int
	// Stage configures each round's instance.
	Stage InstanceConfig
	// CapacityLo, CapacityHi bound each bidder's lifetime capacity Θ_i in
	// coverage slots. Zeros mean [Stage.CoverHi+1, 4·(Stage.CoverHi+1)]
	// so that β = min Θ_i/|S_ij| > 1 (Theorem 7 requires β > 1).
	CapacityLo, CapacityHi int
	// WindowedArrival, when true, draws each bidder's [t⁻, t⁺] uniformly
	// within [1, Rounds] as in §V-A; otherwise bidders are always present.
	WindowedArrival bool
	// DemandNoise is the relative error of the §III estimator used to
	// produce the estimated-demand rounds: estimated = true·(1+U[-σ,σ]).
	// Zero means 0.25.
	DemandNoise float64
}

func (c OnlineConfig) withDefaults() OnlineConfig {
	if c.Rounds == 0 {
		c.Rounds = 10
	}
	stage := c.Stage.withDefaults()
	c.Stage = stage
	if c.CapacityLo == 0 && c.CapacityHi == 0 {
		c.CapacityLo = stage.CoverHi + 1
		c.CapacityHi = 4 * (stage.CoverHi + 1)
	}
	if c.DemandNoise == 0 {
		c.DemandNoise = 0.25
	}
	return c
}

// Scenario is a fully drawn online workload: the true rounds, the
// estimated-demand rounds (same bids, noisy demands), and the MSOA
// configuration (capacities and windows).
type Scenario struct {
	TrueRounds      []core.Round
	EstimatedRounds []core.Round
	Capacity        map[int]int
	Windows         map[int]core.BidderWindow
}

// Config assembles the MSOAConfig for the scenario with the given options.
func (s *Scenario) Config(opts core.Options) core.MSOAConfig {
	return core.MSOAConfig{
		Capacity: s.Capacity,
		Windows:  s.Windows,
		Options:  opts,
	}
}

// Online draws a full multi-round scenario.
func Online(rng *Rand, cfg OnlineConfig) *Scenario {
	c := cfg.withDefaults()
	s := &Scenario{
		Capacity: make(map[int]int),
		Windows:  make(map[int]core.BidderWindow),
	}
	for bidder := 1; bidder <= c.Stage.Bidders; bidder++ {
		s.Capacity[bidder] = rng.UniformInt(c.CapacityLo, c.CapacityHi)
		if c.WindowedArrival {
			a := rng.UniformInt(1, c.Rounds)
			d := rng.UniformInt(a, c.Rounds)
			s.Windows[bidder] = core.BidderWindow{Arrive: a, Depart: d}
		}
	}
	for t := 1; t <= c.Rounds; t++ {
		ins := Instance(rng, c.Stage)
		s.TrueRounds = append(s.TrueRounds, core.Round{T: t, Instance: ins})

		est := ins.Clone()
		for k := range est.Demand {
			noisy := float64(est.Demand[k]) * rng.Uniform(1-c.DemandNoise, 1+c.DemandNoise)
			est.Demand[k] = int(noisy + 0.5)
			if est.Demand[k] < 0 {
				est.Demand[k] = 0
			}
		}
		clampDemand(est)
		s.EstimatedRounds = append(s.EstimatedRounds, core.Round{T: t, Instance: est})
	}
	return s
}
