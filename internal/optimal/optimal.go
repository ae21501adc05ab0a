// Package optimal computes offline-optimal solutions of the winner
// selection problem (ILP (12) in the paper). The performance-ratio figures
// (3a, 5a, 6a) divide the mechanism's social cost by this optimum.
//
// The solver is branch-and-bound over bids with lower bounds from the LP
// relaxation (solved by internal/lp) and an initial incumbent from the
// greedy mechanism itself. For instances that exceed the node budget it
// returns the best incumbent together with the proven LP lower bound and
// Exact=false — ratios computed against the lower bound then over-estimate
// (never under-estimate) the true ratio, which keeps reported results
// conservative.
package optimal

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"edgeauction/internal/core"
	"edgeauction/internal/lp"
)

// ErrInfeasible reports that no selection of bids covers the demand.
var ErrInfeasible = errors.New("optimal: instance infeasible")

// Result is the outcome of an offline solve.
type Result struct {
	// Winners are bid indices of the best solution found.
	Winners []int
	// Cost is the objective value of Winners.
	Cost float64
	// LowerBound is a proven lower bound on the optimal cost. When
	// Exact is true, LowerBound == Cost (up to float tolerance).
	LowerBound float64
	// Exact reports whether Cost is provably optimal.
	Exact bool
	// Nodes is the number of branch-and-bound nodes explored.
	Nodes int
}

// Options bounds the search effort.
type Options struct {
	// MaxNodes caps branch-and-bound nodes; zero means 200000.
	MaxNodes int
	// TimeLimit caps wall-clock search time; zero means unlimited. On
	// expiry the best incumbent and a valid lower bound are returned with
	// Exact=false.
	TimeLimit time.Duration
}

func (o Options) maxNodes() int {
	if o.MaxNodes == 0 {
		return 200000
	}
	return o.MaxNodes
}

// Solve computes the offline optimum of the single-stage winner selection
// problem on ins.
func Solve(ins *core.Instance, opts Options) (*Result, error) {
	if err := ins.Validate(); err != nil {
		return nil, fmt.Errorf("optimal: %w", err)
	}
	if ins.TotalDemand() == 0 {
		return &Result{Winners: nil, Cost: 0, LowerBound: 0, Exact: true}, nil
	}
	if !ins.Coverable() {
		return nil, ErrInfeasible
	}

	s := &solver{ins: ins, opts: opts, best: math.Inf(1)}
	if opts.TimeLimit > 0 {
		s.deadline = time.Now().Add(opts.TimeLimit)
	}

	// Seed the incumbent with the greedy mechanism's selection.
	if out, err := core.SSAM(ins, core.Options{SkipCertificate: true}); err == nil {
		s.best = out.SocialCost
		s.bestWinners = append([]int(nil), out.Winners...)
	}

	rootLB, err := s.solveNode(nil)
	if err != nil {
		if errors.Is(err, lp.ErrInfeasibleLP) {
			return nil, ErrInfeasible
		}
		return nil, err
	}
	s.branch(nil, rootLB)

	if math.IsInf(s.best, 1) {
		return nil, ErrInfeasible
	}
	res := &Result{
		Winners:    s.bestWinners,
		Cost:       s.best,
		LowerBound: s.proverLB(rootLB.Objective),
		Exact:      s.exact,
		Nodes:      s.nodes,
	}
	return res, nil
}

type fixing struct {
	bid int
	in  bool
}

type solver struct {
	ins         *core.Instance
	opts        Options
	best        float64
	bestWinners []int
	nodes       int
	exhausted   bool
	exact       bool
	deadline    time.Time
	// minLeafLB tracks the smallest LP bound among pruned-by-budget
	// subtrees, to report a correct global lower bound on early stop.
	openLB []float64
}

// proverLB returns the proven global lower bound: the root LP bound if the
// search was truncated, else the incumbent value itself.
func (s *solver) proverLB(rootLB float64) float64 {
	if s.exhausted {
		lb := rootLB
		for _, v := range s.openLB {
			if v < lb {
				lb = v
			}
		}
		if lb > s.best {
			lb = s.best
		}
		s.exact = false
		return lb
	}
	s.exact = true
	return s.best
}

// nodeLP is the LP relaxation value and fractional solution at a node.
type nodeLP struct {
	Objective float64
	X         []float64
}

// solveNode solves the LP relaxation under the given fixings. Fixed
// variables are substituted out rather than constrained: forced-in bids
// reduce the coverage RHS and exclude their bidder's remaining bids;
// forced-out bids are simply dropped. Each node therefore solves a smaller
// LP than its parent.
func (s *solver) solveNode(fixes []fixing) (*nodeLP, error) {
	ins := s.ins
	nb := len(ins.Bids)

	excluded := make([]bool, nb)
	fixedCost := 0.0
	residual := append([]int(nil), ins.Demand...)
	for _, f := range fixes {
		if !f.in {
			excluded[f.bid] = true
			continue
		}
		b := &ins.Bids[f.bid]
		fixedCost += b.Price
		for _, k := range b.Covers {
			residual[k] -= b.Units
		}
		for i := range ins.Bids {
			if ins.Bids[i].Bidder == b.Bidder {
				excluded[i] = true // includes f.bid itself
			}
		}
	}

	// Map the surviving bids to LP variables.
	vars := make([]int, 0, nb) // LP var -> original bid
	for i := range ins.Bids {
		if !excluded[i] {
			vars = append(vars, i)
		}
	}

	p := &lp.Problem{Objective: make([]float64, len(vars))}
	for v, i := range vars {
		p.Objective[v] = ins.Bids[i].Price
	}
	// Coverage constraints on residual demand: Σ Units·x ≥ residual_k.
	for k, d := range residual {
		if d <= 0 {
			continue
		}
		row := make([]float64, len(vars))
		nonzero := false
		for v, i := range vars {
			for _, c := range ins.Bids[i].Covers {
				if c == k {
					row[v] = float64(ins.Bids[i].Units)
					nonzero = true
				}
			}
		}
		if !nonzero {
			return nil, lp.ErrInfeasibleLP
		}
		if err := p.AddConstraint(row, lp.GE, float64(d)); err != nil {
			return nil, err
		}
	}
	// Bidder constraints: Σ_j x_ij ≤ 1 (also enforces x ≤ 1).
	byBidder := map[int][]int{}
	for v, i := range vars {
		byBidder[ins.Bids[i].Bidder] = append(byBidder[ins.Bids[i].Bidder], v)
	}
	bidders := make([]int, 0, len(byBidder))
	for b := range byBidder {
		bidders = append(bidders, b)
	}
	sort.Ints(bidders)
	for _, b := range bidders {
		row := make([]float64, len(vars))
		for _, v := range byBidder[b] {
			row[v] = 1
		}
		if err := p.AddConstraint(row, lp.LE, 1); err != nil {
			return nil, err
		}
	}

	sol, err := lp.Solve(p)
	if err != nil {
		return nil, err
	}
	// Expand back to full variable space, re-applying the fixings.
	x := make([]float64, nb)
	for v, i := range vars {
		x[i] = sol.X[v]
	}
	for _, f := range fixes {
		if f.in {
			x[f.bid] = 1
		}
	}
	return &nodeLP{Objective: sol.Objective + fixedCost, X: x}, nil
}

const intTol = 1e-6

// branch explores the subtree under fixes, whose LP relaxation rel is
// already solved, updating the incumbent.
func (s *solver) branch(fixes []fixing, rel *nodeLP) {
	s.nodes++
	if s.nodes > s.opts.maxNodes() ||
		(!s.deadline.IsZero() && s.nodes%16 == 0 && time.Now().After(s.deadline)) {
		s.exhausted = true
		s.openLB = append(s.openLB, rel.Objective)
		return
	}
	if rel.Objective >= s.best-1e-9 {
		return // prune by bound: optimality is proved to 1e-9 absolute
	}
	// Most-fractional branching variable.
	frac, fracBid := 0.0, -1
	for i, x := range rel.X {
		f := math.Abs(x - math.Round(x))
		if f > intTol && f > frac {
			frac, fracBid = f, i
		}
	}
	if fracBid < 0 {
		// Integral: candidate incumbent.
		winners := make([]int, 0)
		for i, x := range rel.X {
			if x > 0.5 {
				winners = append(winners, i)
			}
		}
		if rel.Objective < s.best-1e-9 {
			s.best = rel.Objective
			s.bestWinners = winners
		}
		return
	}
	// Branch x=1 first (tends to find good incumbents faster on covering
	// problems), then x=0.
	for _, in := range []bool{true, false} {
		if s.exhausted {
			// Budget spent somewhere below: stop solving sibling LPs; the
			// subtree bound recorded at exhaustion keeps proverLB valid.
			s.openLB = append(s.openLB, rel.Objective)
			return
		}
		child := append(append([]fixing(nil), fixes...), fixing{bid: fracBid, in: in})
		childRel, err := s.solveNode(child)
		if err != nil {
			if errors.Is(err, lp.ErrInfeasibleLP) {
				continue
			}
			// Unexpected solver failure: treat subtree as open so the
			// reported bound stays valid.
			s.exhausted = true
			s.openLB = append(s.openLB, rel.Objective)
			continue
		}
		s.branch(child, childRel)
	}
}

// SolveExhaustive enumerates all bid subsets (at most one bid per bidder)
// and returns the true optimum. Exponential; use only on tiny instances —
// it exists to cross-check Solve in tests. It returns ErrInfeasible when no
// subset covers the demand.
func SolveExhaustive(ins *core.Instance) (*Result, error) {
	byBidder := map[int][]int{}
	for i, b := range ins.Bids {
		byBidder[b.Bidder] = append(byBidder[b.Bidder], i)
	}
	bidders := make([]int, 0, len(byBidder))
	for b := range byBidder {
		bidders = append(bidders, b)
	}
	sort.Ints(bidders)
	if len(bidders) > 16 {
		return nil, fmt.Errorf("optimal: exhaustive solver limited to 16 bidders, got %d", len(bidders))
	}

	best := math.Inf(1)
	var bestWinners []int
	theta := make([]int, len(ins.Demand))

	var rec func(bi int, cost float64, chosen []int)
	rec = func(bi int, cost float64, chosen []int) {
		if cost >= best {
			return
		}
		if bi == len(bidders) {
			for k, d := range ins.Demand {
				if theta[k] < d {
					return
				}
			}
			best = cost
			bestWinners = append([]int(nil), chosen...)
			return
		}
		// Option: skip this bidder.
		rec(bi+1, cost, chosen)
		// Option: take one of its bids.
		for _, idx := range byBidder[bidders[bi]] {
			b := &ins.Bids[idx]
			for _, k := range b.Covers {
				theta[k] += b.Units
			}
			rec(bi+1, cost+b.Price, append(chosen, idx))
			for _, k := range b.Covers {
				theta[k] -= b.Units
			}
		}
	}
	rec(0, 0, nil)

	if math.IsInf(best, 1) {
		return nil, ErrInfeasible
	}
	return &Result{Winners: bestWinners, Cost: best, LowerBound: best, Exact: true}, nil
}

// LowerBound returns the LP-relaxation lower bound of the instance without
// any search: the cheapest certified denominator for ratio experiments on
// instances too large to solve exactly.
func LowerBound(ins *core.Instance) (float64, error) {
	s := &solver{ins: ins}
	rel, err := s.solveNode(nil)
	if err != nil {
		if errors.Is(err, lp.ErrInfeasibleLP) {
			return 0, ErrInfeasible
		}
		return 0, err
	}
	return rel.Objective, nil
}
