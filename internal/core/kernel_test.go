package core

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"
)

// TestBetterScore pins the shared greedy comparison (the ONE tie-break rule
// every selection path routes through): strictly lower score wins, and an
// exact float64 score tie falls to the lower bid index — in both argument
// orders, so the rule is a strict weak ordering.
func TestBetterScore(t *testing.T) {
	cases := []struct {
		s1   float64
		b1   int32
		s2   float64
		b2   int32
		want bool
	}{
		{1, 5, 2, 1, true},            // lower score wins regardless of index
		{2, 1, 1, 5, false},           // higher score loses regardless of index
		{3, 2, 3, 7, true},            // exact tie: lower index wins
		{3, 7, 3, 2, false},           // exact tie: higher index loses
		{3, 4, 3, 4, false},           // identical pair: not "better" (strictness)
		{0.1 + 0.2, 9, 0.3, 1, false}, // 0.30000000000000004 > 0.3: no tie
	}
	for _, c := range cases {
		if got := betterScore(c.s1, c.b1, c.s2, c.b2); got != c.want {
			t.Errorf("betterScore(%v,%d,%v,%d) = %v, want %v", c.s1, c.b1, c.s2, c.b2, got, c.want)
		}
	}
}

// TestExactTiePermutedList is the regression test for the permuted-list
// tie-break case: the kernel's heaps permute entries as the run progresses
// (sift-downs, pops, copies into replays), so the lowest-bid-index
// rule must be applied explicitly rather than inherited from scan order.
// The instance makes the rule fully observable from the outside: every bid
// covers exactly one unit-demand needy service at the same price, so EVERY
// live bid carries the identical score at every iteration, the greedy
// winner is always the lowest-index live bid, and a bid dies exactly when
// its needy service is covered. A transparent mini-oracle computes the
// unique correct winner sequence under that rule, and the assignment of
// needy targets to bid indices is re-permuted every trial.
func TestExactTiePermutedList(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const needy, perNeedy = 4, 3
	for trial := 0; trial < 25; trial++ {
		// target[i] is the single needy service bid i covers: perNeedy
		// duplicate bids per needy, scattered over bid indices.
		target := make([]int, 0, needy*perNeedy)
		for k := 0; k < needy; k++ {
			for j := 0; j < perNeedy; j++ {
				target = append(target, k)
			}
		}
		rng.Shuffle(len(target), func(i, j int) { target[i], target[j] = target[j], target[i] })

		ins := &Instance{Demand: make([]int, needy)}
		for k := range ins.Demand {
			ins.Demand[k] = 1
		}
		for i, k := range target {
			ins.Bids = append(ins.Bids, Bid{
				Bidder: i + 1, Price: 10, TrueCost: 10,
				Covers: []int{k}, Units: 1,
			})
		}

		// Mini-oracle: repeatedly select the lowest-index bid whose needy
		// service is still uncovered.
		covered := make([]bool, needy)
		var want []int
		for len(want) < needy {
			for i, k := range target {
				if !covered[k] {
					covered[k] = true
					want = append(want, i)
					break
				}
			}
		}

		for _, opts := range []Options{
			{},
			{Metric: LowestPrice},
			{Payment: FirstPrice, SkipCertificate: true},
			{Parallelism: 4},
		} {
			out, err := SSAM(ins, opts)
			if err != nil {
				t.Fatalf("trial %d: SSAM: %v", trial, err)
			}
			if len(out.Winners) != len(want) {
				t.Fatalf("trial %d opts %+v: got %d winners %v, want %v", trial, opts, len(out.Winners), out.Winners, want)
			}
			for i := range want {
				if out.Winners[i] != want[i] {
					t.Fatalf("trial %d opts %+v: winner sequence %v violates the lowest-index tie-break, want %v (targets %v)",
						trial, opts, out.Winners, want, target)
				}
			}
		}
	}
}

// TestKernelPoolReuseAcrossShapes drives the pooled kernel and replay
// scratches through back-to-back instances of sharply different sizes and
// generator families, holding every run to the reference oracle. A pooled
// buffer that survives a resize, a stale ban, heap entry or follower, or
// any other state leaking across builds would surface as a differential
// divergence here. Parallelism rotates so replay scratches also cross shapes.
func TestKernelPoolReuseAcrossShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	shapes := []struct{ bidders, needy, bidsPer int }{
		{40, 6, 3}, {2, 1, 1}, {25, 8, 2}, {3, 2, 1}, {50, 4, 3},
	}
	for round := 0; round < 3; round++ {
		for si, sh := range shapes {
			var ins *Instance
			switch si % 3 {
			case 0:
				ins = randomInstance(rng, sh.bidders, sh.needy, sh.bidsPer)
			case 1:
				ins = tieProneInstance(rng, sh.bidders, sh.needy, sh.bidsPer)
			default:
				ins = saturationHeavyInstance(rng, sh.bidders, sh.needy, sh.bidsPer)
			}
			scaled := make([]float64, len(ins.Bids))
			for i, b := range ins.Bids {
				scaled[i] = b.Price
			}
			opts := Options{Parallelism: 1 + (round+si)%4}
			assertDifferential(t, ins, scaled, opts,
				"pool-reuse round="+itoa(round)+" shape="+itoa(si))

			// Budgeted path: exercises from-scratch replay scratch reuse.
			full, err := referenceSSAM(ins, opts)
			if err != nil {
				t.Fatalf("round %d shape %d: reference: %v", round, si, err)
			}
			budget := full.TotalPayment() * 0.6
			want, wantErr := referenceBudgetedSSAM(ins, budget, opts)
			got, gotErr := BudgetedSSAM(ins, budget, opts)
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("round %d shape %d: budgeted error divergence: %v vs %v", round, si, wantErr, gotErr)
			}
			if wantErr == nil && !want.Outcome.Equal(&got.Outcome) {
				t.Fatalf("round %d shape %d: budgeted divergence:\nreference: %+v\nkernel:    %+v", round, si, want.Outcome, got.Outcome)
			}
		}
	}
}

// TestReplayFollowerTracksMainRun holds the payment follower to the main
// run it re-derives. Advanced through every checkpoint of a completed
// selection, a fresh follower must hold that checkpoint's θ and pop the
// winner the main run picked there; otherwise a replay would start from
// the wrong state and the divergence would show only as a payment
// bit-diff. Random, tie-prone and saturation-heavy instances run under
// both greedy metrics.
func TestReplayFollowerTracksMainRun(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	gens := []func(*rand.Rand, int, int, int) *Instance{
		randomInstance, tieProneInstance, saturationHeavyInstance,
	}
	for trial := 0; trial < 45; trial++ {
		ins := gens[trial%len(gens)](rng, 2+rng.Intn(30), 1+rng.Intn(8), 1+rng.Intn(3))
		scaled := make([]float64, len(ins.Bids))
		for i, b := range ins.Bids {
			scaled[i] = b.Price
		}
		for _, metric := range []GreedyMetric{PricePerCoverage, LowestPrice} {
			opts := Options{Metric: metric, SkipCertificate: true}
			kn := new(kernel)
			if err := kn.build(ins, scaled, opts); err != nil {
				t.Fatalf("trial %d: build: %v", trial, err)
			}
			// An infeasible run still checkpoints every winner it picked.
			_ = kn.selectWinners(ins, opts, &Outcome{}, nil)
			rs := new(replayScratch)
			rs.startFollower(kn)
			for s, w := range kn.winners {
				rs.follow(kn, s)
				if want := kn.ckTheta[s*kn.nk : (s+1)*kn.nk]; !slices.Equal(rs.follower.theta, want) {
					t.Fatalf("trial %d metric %d checkpoint %d: follower θ %v, main run %v", trial, metric, s, rs.follower.theta, want)
				}
				if got, _, _ := rs.follower.popBest(kn); got != int32(w) {
					t.Fatalf("trial %d metric %d checkpoint %d: follower pops bid %d, main run won with %d", trial, metric, s, got, w)
				}
			}
			// Out of order, every request rewinds the follower first.
			for s := len(kn.winners) - 1; s >= 0; s-- {
				rs.follow(kn, s)
				if want := kn.ckTheta[s*kn.nk : (s+1)*kn.nk]; !slices.Equal(rs.follower.theta, want) {
					t.Fatalf("trial %d metric %d rewound to checkpoint %d: follower θ %v, main run %v", trial, metric, s, rs.follower.theta, want)
				}
			}
		}
	}
}

// TestBuildRejectsMarginalOverflow pins build's bound on a bid's reach.
// The heap caches marginals as int32, and a bid whose clamped cover caps
// sum past MaxInt32 has a marginal no int32 can hold: its cached marginal
// would never equal the recomputed one, and popBest would rescore the same
// root forever. build must reject such an instance instead, promptly.
func TestBuildRejectsMarginalOverflow(t *testing.T) {
	ins := &Instance{
		Demand: []int{1 << 30, 1 << 30},
		Bids:   []Bid{{Bidder: 1, Price: 1, TrueCost: 1, Covers: []int{0, 1}, Units: 1 << 30}},
	}
	if err := ins.Validate(); err != nil {
		t.Fatalf("instance must be valid to reach the kernel: %v", err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := SSAM(ins, Options{})
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "int32 domain") {
			t.Fatalf("SSAM error %v, want the kernel's int32 domain error", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("SSAM did not return within 10s on a bid whose marginal overflows int32")
	}
}
