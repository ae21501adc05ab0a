package sim

import (
	"fmt"
	"sort"

	"edgeauction/internal/core"
	"edgeauction/internal/demand"
	"edgeauction/internal/workload"
)

// Bridge converts simulator round reports into auction rounds: it runs the
// demand estimator over each microservice's indicators, declares the
// overloaded ones "needy", and has the underloaded ones submit bids
// offering to yield resources to colocated needy microservices — the full
// §II pipeline of (a) online demand estimation and (b) winner selection
// input preparation.
type Bridge struct {
	cfg       BridgeConfig
	estimator *demand.Estimator
	sim       *Simulator
	rng       *workload.Rand
}

// BridgeConfig parameterizes the conversion.
type BridgeConfig struct {
	// NeedyQueue is the end-of-round backlog at or above which a
	// microservice is considered needy regardless of utilization; zero
	// means 1. Raising it keeps services whose only backlog is the
	// in-flight tail request of the round from entering the demand side.
	NeedyQueue int
	// MaxUnits caps the per-needy coverage demand; zero means uncapped.
	// The AHP rate factor has a 1/(1−utilization) pole, so a saturated
	// microservice (graph mode pins utilization at exactly 1 while
	// backlogged) would otherwise demand millions of units and the market
	// would degenerate into reserve-pool purchases. Capping at the top of
	// the paper's §V-A demand range (40) keeps instances in the studied
	// regime while preserving the estimator's ordering of who is neediest.
	MaxUnits int
	// Seed seeds bid randomization.
	Seed int64
	// NoPlatformReserve disables the platform's fallback supply. By
	// default each auctioned round includes a reserve ladder (bidder ids
	// from ReserveBidderID upward) covering every needy microservice at
	// reservePrice per coverage unit — the "more expensive alternative"
	// the platform falls back to when colocated offers cannot cover the
	// demand.
	NoPlatformReserve bool
}

// The bridge's fixed conversion rules.
const (
	// needyUtilization is the utilization at or above which a
	// microservice is needy.
	needyUtilization = 0.7
	// bidderUtilization is the utilization at or below which a
	// microservice is willing to yield resources.
	bidderUtilization = 0.5
	// bidsPerBidder is J, the alternative bids per willing microservice.
	bidsPerBidder = 2
	// basePrice anchors bid prices (the paper's price range starts at
	// 10); the final price grows with the bidder's utilization by up to
	// priceSpread — busier bidders value their resources more — so prices
	// span [10, 35] as in §V-A.
	basePrice   = 10.0
	priceSpread = 25.0
	// reservePrice is the platform fallback's per-unit price: the top of
	// the market range.
	reservePrice = basePrice + priceSpread
)

// ReserveBidderID identifies the platform's fallback supplier in auction
// rounds produced by the bridge. It is far above any microservice id.
const ReserveBidderID = 1 << 30

// NewBridge builds a bridge for a simulator, estimating demand with the
// AHP default §III estimator.
func NewBridge(sim *Simulator, cfg BridgeConfig) (*Bridge, error) {
	if cfg.NeedyQueue == 0 {
		cfg.NeedyQueue = 1
	}
	est, err := demand.NewEstimator(demand.Config{})
	if err != nil {
		return nil, fmt.Errorf("sim: build default estimator: %w", err)
	}
	return &Bridge{cfg: cfg, estimator: est, sim: sim, rng: workload.NewRand(cfg.Seed)}, nil
}

// AuctionRound is the bridge's output for one simulator round.
type AuctionRound struct {
	Round core.Round
	// NeedyIDs maps needy index (Instance.Demand position) to
	// microservice id.
	NeedyIDs []int
	// Estimates is the continuous demand estimate per microservice id.
	Estimates map[int]float64
}

// Convert builds the auction round for a simulator report. Rounds with no
// needy or no willing bidders yield an AuctionRound with an empty instance
// (nothing to auction).
func (b *Bridge) Convert(rep *RoundReport) *AuctionRound {
	ar := &AuctionRound{
		Round:     core.Round{T: rep.Round, Instance: &core.Instance{}},
		Estimates: make(map[int]float64),
	}

	ids := make([]int, 0, len(rep.Indicators))
	for id := range rep.Indicators {
		ids = append(ids, id)
	}
	sort.Ints(ids)

	services := make(map[int]Microservice, len(b.sim.Services()))
	for _, ms := range b.sim.Services() {
		services[ms.ID] = ms
	}

	needyIdx := make(map[int]int) // ms id -> needy index
	needyCloud := make(map[int][]int)
	for _, id := range ids {
		in := rep.Indicators[id]
		est := b.estimator.Estimate(in)
		ar.Estimates[id] = est
		if in.ExecutionRate >= needyUtilization || rep.QueueLengths[id] >= b.cfg.NeedyQueue {
			units := b.estimator.EstimateUnits(in, 1)
			if units == 0 {
				units = 1 // a backlogged service needs at least one unit
			}
			if b.cfg.MaxUnits > 0 && units > b.cfg.MaxUnits {
				units = b.cfg.MaxUnits
			}
			needyIdx[id] = len(ar.NeedyIDs)
			ar.NeedyIDs = append(ar.NeedyIDs, id)
			ar.Round.Instance.Demand = append(ar.Round.Instance.Demand, units)
			needyCloud[services[id].Cloud] = append(needyCloud[services[id].Cloud], needyIdx[id])
		}
	}
	if len(ar.NeedyIDs) == 0 {
		return ar
	}

	for _, id := range ids {
		in := rep.Indicators[id]
		if _, isNeedy := needyIdx[id]; isNeedy || in.ExecutionRate > bidderUtilization {
			continue
		}
		// Resource sharing happens within the same edge cloud (§II).
		local := needyCloud[services[id].Cloud]
		if len(local) == 0 {
			continue
		}
		for alt := 0; alt < bidsPerBidder; alt++ {
			k := 1 + b.rng.Intn(len(local))
			cover := make([]int, 0, k)
			for _, pos := range b.rng.Subset(len(local), k) {
				cover = append(cover, local[pos])
			}
			// An idle bidder's spare capacity is what the fair share gave
			// it minus what it uses; price reflects scarcity of the rest.
			spare := (1 - in.ExecutionRate) * in.Allocated
			units := int(spare/10) + 1
			trueCost := basePrice + priceSpread*in.ExecutionRate +
				b.rng.Uniform(0, priceSpread/5)
			ar.Round.Instance.Bids = append(ar.Round.Instance.Bids, core.Bid{
				Bidder:   id,
				Alt:      alt,
				Price:    trueCost,
				TrueCost: trueCost,
				Covers:   cover,
				Units:    units,
			})
		}
	}
	if !b.cfg.NoPlatformReserve {
		workload.AddReserveLadder(ar.Round.Instance, ReserveBidderID, reservePrice)
	}
	return ar
}

// ConvertAll converts a full simulation's reports.
func (b *Bridge) ConvertAll(reports []*RoundReport) []*AuctionRound {
	out := make([]*AuctionRound, 0, len(reports))
	for _, rep := range reports {
		out = append(out, b.Convert(rep))
	}
	return out
}

// TransferUnitRate is the work-rate one traded coverage unit is worth
// when auction outcomes feed back into the simulator: 10 work units per
// time unit, mirroring the bridge's sizing of seller bids (one unit per
// 10 spare work-rate).
const TransferUnitRate = 10

// Transfers turns a cleared round's winners (indices into
// ar.Round.Instance.Bids) into the fair-share adjustment for
// Simulator.ApplyTransfers: each winning bid grants its covered needy
// microservices Units x TransferUnitRate work-rate, split evenly across
// the cover, and drains the same amount from the selling microservice.
// Reserve bids inject platform capacity without draining anyone;
// reserveUnits totals the units they sold.
func (ar *AuctionRound) Transfers(winners []int) (delta map[int]float64, reserveUnits int) {
	delta = make(map[int]float64)
	for _, w := range winners {
		bid := ar.Round.Instance.Bids[w]
		grant := float64(bid.Units) * TransferUnitRate / float64(len(bid.Covers))
		for _, k := range bid.Covers {
			delta[ar.NeedyIDs[k]] += grant
		}
		if bid.Bidder >= ReserveBidderID {
			reserveUnits += bid.Units
		} else {
			delta[bid.Bidder] -= float64(bid.Units) * TransferUnitRate
		}
	}
	return delta, reserveUnits
}

// DemandSchedule precomputes rounds of residual demand from a simulated
// service graph bridged through the §III estimator, as a pure function of
// (g, scale, maxUnits, rounds, seed): every service's work is multiplied
// by scale (0 means 1; g is scaled in place), the simulator and bridge
// seed from the "workload" sub-stream of seed, each needy service's
// demand is capped at maxUnits, and NeedyQueue 2 keeps tail-request
// backlogs off the demand side. An idle round becomes []int{1}, because
// the platform round machinery expects at least one needy microservice.
// Index t-1 holds round t.
func DemandSchedule(g *workload.ServiceGraph, scale float64, maxUnits, rounds int, seed int64) ([][]int, error) {
	if scale < 0 {
		return nil, fmt.Errorf("sim: negative work scale %v", scale)
	}
	if scale != 0 {
		for i := range g.Services {
			g.Services[i].Work *= scale
		}
	}
	rng := workload.NewDerived(seed, "workload", 0, 0)
	simulator, err := New(Config{Graph: g, Rounds: rounds, Seed: rng.Int63()})
	if err != nil {
		return nil, err
	}
	bridge, err := NewBridge(simulator, BridgeConfig{Seed: rng.Int63(), MaxUnits: maxUnits, NeedyQueue: 2})
	if err != nil {
		return nil, err
	}
	sched := make([][]int, rounds)
	for t := range sched {
		d := append([]int(nil), bridge.Convert(simulator.RunRound()).Round.Instance.Demand...)
		if len(d) == 0 {
			d = []int{1}
		}
		sched[t] = d
	}
	return sched, nil
}
