package core

import (
	"math"
	"math/rand"
	"testing"
)

// simpleRound builds a round where every bidder offers to cover needy 0.
func simpleRound(t int, demand int, prices ...float64) Round {
	ins := &Instance{Demand: []int{demand}}
	for i, p := range prices {
		ins.Bids = append(ins.Bids, Bid{
			Bidder: i + 1, Price: p, TrueCost: p, Covers: []int{0}, Units: demand,
		})
	}
	return Round{T: t, Instance: ins}
}

func TestMSOASingleRoundMatchesSSAM(t *testing.T) {
	r := simpleRound(1, 2, 10, 20, 30)
	m := NewMSOA(MSOAConfig{})
	res := m.RunRound(r)
	if res.Err != nil {
		t.Fatalf("round failed: %v", res.Err)
	}
	direct, err := SSAM(r.Instance, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome.SocialCost != direct.SocialCost {
		t.Fatalf("MSOA first round cost %v != SSAM %v", res.Outcome.SocialCost, direct.SocialCost)
	}
}

func TestMSOAScaledPriceGrowsAfterWins(t *testing.T) {
	m := NewMSOA(MSOAConfig{DefaultCapacity: 10, Alpha: 1})
	r1 := simpleRound(1, 1, 10, 20)
	res1 := m.RunRound(r1)
	if res1.Err != nil {
		t.Fatal(res1.Err)
	}
	winner := r1.Instance.Bids[res1.Outcome.Winners[0]].Bidder
	if psi := m.Psi(winner); psi <= 0 {
		t.Fatalf("winner's ψ should be positive after winning, got %v", psi)
	}
	loser := 3 - winner
	if psi := m.Psi(loser); psi != 0 {
		t.Fatalf("loser's ψ should stay 0, got %v", psi)
	}
	// In the next round the previous winner's scaled price exceeds its raw
	// price.
	r2 := simpleRound(2, 1, 10, 20)
	res2 := m.RunRound(r2)
	if res2.Err != nil {
		t.Fatal(res2.Err)
	}
	idx := winner - 1 // bids are ordered by bidder in simpleRound
	if res2.Scaled[idx] <= r2.Instance.Bids[idx].Price {
		t.Fatalf("scaled price %v should exceed raw price %v for prior winner",
			res2.Scaled[idx], r2.Instance.Bids[idx].Price)
	}
}

func TestMSOACapacityExcludesBids(t *testing.T) {
	// Bidder 1 has capacity 1 (one coverage slot). After one win its bids
	// must be excluded.
	cfg := MSOAConfig{Capacity: map[int]int{1: 1}, DefaultCapacity: 0}
	m := NewMSOA(cfg)
	r1 := simpleRound(1, 1, 5, 50)
	res1 := m.RunRound(r1)
	if res1.Err != nil {
		t.Fatal(res1.Err)
	}
	if got := r1.Instance.Bids[res1.Outcome.Winners[0]].Bidder; got != 1 {
		t.Fatalf("round 1 winner = bidder %d, want 1", got)
	}
	if m.UsedCapacity(1) != 1 {
		t.Fatalf("χ_1 = %d, want 1", m.UsedCapacity(1))
	}
	r2 := simpleRound(2, 1, 5, 50)
	res2 := m.RunRound(r2)
	if res2.Err != nil {
		t.Fatal(res2.Err)
	}
	if len(res2.Excluded) != 1 || res2.Excluded[0] != 0 {
		t.Fatalf("round 2 should exclude bidder 1's bid, got excluded=%v", res2.Excluded)
	}
	if got := r2.Instance.Bids[res2.Outcome.Winners[0]].Bidder; got != 2 {
		t.Fatalf("round 2 winner = bidder %d, want 2", got)
	}
	if err := VerifyCapacity(cfg, []Round{r1, r2}, m.Results()); err != nil {
		t.Fatal(err)
	}
}

func TestMSOAWindowsExcludeBids(t *testing.T) {
	cfg := MSOAConfig{Windows: map[int]BidderWindow{1: {Arrive: 2, Depart: 2}}}
	m := NewMSOA(cfg)
	r1 := simpleRound(1, 1, 5, 50)
	res1 := m.RunRound(r1)
	if res1.Err != nil {
		t.Fatal(res1.Err)
	}
	if got := r1.Instance.Bids[res1.Outcome.Winners[0]].Bidder; got != 2 {
		t.Fatalf("round 1 winner = bidder %d, want 2 (bidder 1 absent)", got)
	}
	r2 := simpleRound(2, 1, 5, 50)
	res2 := m.RunRound(r2)
	if res2.Err != nil {
		t.Fatal(res2.Err)
	}
	if got := r2.Instance.Bids[res2.Outcome.Winners[0]].Bidder; got != 1 {
		t.Fatalf("round 2 winner = bidder %d, want 1 (now arrived)", got)
	}
	if err := VerifyWindows(cfg, []Round{r1, r2}, m.Results()); err != nil {
		t.Fatal(err)
	}
}

func TestMSOAInfeasibleRoundContinues(t *testing.T) {
	m := NewMSOA(MSOAConfig{})
	bad := Round{T: 1, Instance: &Instance{Demand: []int{5}}} // no bids
	good := simpleRound(2, 1, 5)
	sum := m.Run([]Round{bad, good})
	if sum.InfeasibleRounds != 1 {
		t.Fatalf("infeasible rounds = %d, want 1", sum.InfeasibleRounds)
	}
	if sum.Rounds != 2 || sum.WinningBids != 1 {
		t.Fatalf("unexpected summary %+v", sum)
	}
}

func TestMSOASummaryAggregation(t *testing.T) {
	m := NewMSOA(MSOAConfig{DefaultCapacity: 100})
	rounds := []Round{
		simpleRound(1, 1, 10, 20),
		simpleRound(2, 1, 15, 25),
	}
	sum := m.Run(rounds)
	if sum.SocialCost != 25 { // 10 + 15: cheapest wins each round
		t.Fatalf("social cost %v, want 25", sum.SocialCost)
	}
	if sum.TotalPayment < sum.SocialCost {
		t.Fatalf("payment %v below social cost %v", sum.TotalPayment, sum.SocialCost)
	}
	if sum.MaxCertRatio < 1 {
		t.Fatalf("certified ratio %v < 1", sum.MaxCertRatio)
	}
}

func TestMSOAScaledCostAccountsRawSocialCost(t *testing.T) {
	// After bidder 1 wins round 1, round 2's SocialCost must use raw
	// prices even though selection used scaled ones.
	m := NewMSOA(MSOAConfig{DefaultCapacity: 2, Alpha: 1})
	r1 := simpleRound(1, 1, 10, 12)
	if res := m.RunRound(r1); res.Err != nil {
		t.Fatal(res.Err)
	}
	r2 := simpleRound(2, 1, 10, 12)
	res2 := m.RunRound(r2)
	if res2.Err != nil {
		t.Fatal(res2.Err)
	}
	w := res2.Outcome.Winners[0]
	if res2.Outcome.SocialCost != r2.Instance.Bids[w].Price {
		t.Fatalf("round social cost %v != winner raw price %v",
			res2.Outcome.SocialCost, r2.Instance.Bids[w].Price)
	}
	if res2.Outcome.ScaledCost < res2.Outcome.SocialCost {
		t.Fatalf("scaled cost %v below raw cost %v", res2.Outcome.ScaledCost, res2.Outcome.SocialCost)
	}
}

func TestMSOADisableScaledPriceAblation(t *testing.T) {
	m := NewMSOA(MSOAConfig{DefaultCapacity: 5, DisableScaledPrice: true})
	r1 := simpleRound(1, 1, 10, 20)
	if res := m.RunRound(r1); res.Err != nil {
		t.Fatal(res.Err)
	}
	r2 := simpleRound(2, 1, 10, 20)
	res2 := m.RunRound(r2)
	if res2.Err != nil {
		t.Fatal(res2.Err)
	}
	for i, s := range res2.Scaled {
		if s != r2.Instance.Bids[i].Price {
			t.Fatalf("scaled price %v != raw %v with scaling disabled", s, r2.Instance.Bids[i].Price)
		}
	}
}

func TestCompetitiveBound(t *testing.T) {
	rounds := []Round{simpleRound(1, 1, 10, 20)}
	// Unconstrained: bound = alpha.
	if got := CompetitiveBound(2, MSOAConfig{}, rounds); got != 2 {
		t.Fatalf("unconstrained bound %v, want 2", got)
	}
	// β = Θ/|S| = 3/1 = 3: bound = α·β/(β−1) = 2·1.5 = 3.
	cfg := MSOAConfig{DefaultCapacity: 3}
	if got := CompetitiveBound(2, cfg, rounds); math.Abs(got-3) > 1e-9 {
		t.Fatalf("bound %v, want 3", got)
	}
	// β ≤ 1: bound is infinite.
	cfg = MSOAConfig{DefaultCapacity: 1}
	if got := CompetitiveBound(2, cfg, rounds); !math.IsInf(got, 1) {
		t.Fatalf("bound %v, want +Inf", got)
	}
}

func TestBidderWindowContains(t *testing.T) {
	var zero BidderWindow
	if !zero.Contains(1) || !zero.Contains(99) {
		t.Fatal("zero window must always contain")
	}
	w := BidderWindow{Arrive: 2, Depart: 4}
	for _, tc := range []struct {
		t    int
		want bool
	}{{1, false}, {2, true}, {3, true}, {4, true}, {5, false}} {
		if got := w.Contains(tc.t); got != tc.want {
			t.Fatalf("Contains(%d) = %v, want %v", tc.t, got, tc.want)
		}
	}
}

func TestVariantsBuild(t *testing.T) {
	trueRounds := []Round{simpleRound(1, 2, 10, 20)}
	estRounds := []Round{simpleRound(1, 1, 10, 20)} // under-estimate
	cfg := MSOAConfig{DefaultCapacity: 4, Capacity: map[int]int{1: 2}}

	rounds, vcfg := BuildVariant(VariantBase, VariantParams{}, trueRounds, estRounds, cfg)
	if &rounds[0] != &estRounds[0] || vcfg.DefaultCapacity != 4 {
		t.Fatal("base variant must keep estimated rounds and config")
	}
	rounds, vcfg = BuildVariant(VariantDA, VariantParams{}, trueRounds, estRounds, cfg)
	if rounds[0].Instance.Demand[0] != 2 {
		t.Fatal("DA variant must use true demand")
	}
	if vcfg.DefaultCapacity != 4 {
		t.Fatal("DA variant must keep capacities")
	}
	rounds, vcfg = BuildVariant(VariantRC, VariantParams{}, trueRounds, estRounds, cfg)
	if rounds[0].Instance.Demand[0] != 1 {
		t.Fatal("RC variant must keep estimated demand")
	}
	if vcfg.DefaultCapacity != 8 || vcfg.Capacity[1] != 4 {
		t.Fatalf("RC variant must double capacities, got default=%d cap[1]=%d",
			vcfg.DefaultCapacity, vcfg.Capacity[1])
	}
	rounds, vcfg = BuildVariant(VariantOA, VariantParams{CapacityFactor: 3}, trueRounds, estRounds, cfg)
	if rounds[0].Instance.Demand[0] != 2 || vcfg.DefaultCapacity != 12 {
		t.Fatal("OA variant must use true demand AND relaxed capacities")
	}
}

// TestVariantsPreserveConfigFields is a regression test for the RC/OA
// config derivation: it built a fresh MSOAConfig naming fields one by one
// and silently dropped DefaultCapacitySet (turning an explicit zero default
// capacity into "unlimited") and CapacityExemptFrom (capacity-limiting the
// platform's exempt fallback supply). Every non-capacity field must survive
// the variant transform verbatim.
func TestVariantsPreserveConfigFields(t *testing.T) {
	cfg := MSOAConfig{
		DefaultCapacity:    0,
		DefaultCapacitySet: true,
		CapacityExemptFrom: 1000,
		Capacity:           map[int]int{1: 2},
		Windows:            map[int]BidderWindow{1: {Arrive: 1, Depart: 3}},
		Alpha:              1.5,
		DisableScaledPrice: true,
		Options:            Options{SkipCertificate: true, Parallelism: 2},
	}
	trueRounds := []Round{simpleRound(1, 2, 10, 20)}
	estRounds := []Round{simpleRound(1, 1, 10, 20)}
	for _, v := range []Variant{VariantRC, VariantOA} {
		_, vcfg := BuildVariant(v, VariantParams{}, trueRounds, estRounds, cfg)
		if !vcfg.DefaultCapacitySet {
			t.Fatalf("%v: DefaultCapacitySet dropped — explicit zero default capacity became unlimited", v)
		}
		if vcfg.CapacityExemptFrom != 1000 {
			t.Fatalf("%v: CapacityExemptFrom = %d, want 1000", v, vcfg.CapacityExemptFrom)
		}
		if vcfg.Alpha != 1.5 || !vcfg.DisableScaledPrice || !vcfg.Options.SkipCertificate || vcfg.Options.Parallelism != 2 {
			t.Fatalf("%v: non-capacity fields not preserved: %+v", v, vcfg)
		}
		if vcfg.Windows[1] != cfg.Windows[1] {
			t.Fatalf("%v: windows not preserved", v)
		}
		if vcfg.Capacity[1] != 4 {
			t.Fatalf("%v: capacity not scaled, got %d want 4", v, vcfg.Capacity[1])
		}
		if vcfg.DefaultCapacity != 0 {
			t.Fatalf("%v: explicit zero default capacity must stay zero, got %d", v, vcfg.DefaultCapacity)
		}
	}
}

func TestVariantString(t *testing.T) {
	for v, want := range map[Variant]string{
		VariantBase: "MSOA", VariantDA: "MSOA-DA", VariantRC: "MSOA-RC",
		VariantOA: "MSOA-OA", Variant(99): "MSOA-?",
	} {
		if got := v.String(); got != want {
			t.Fatalf("Variant(%d).String() = %q, want %q", v, got, want)
		}
	}
}

func TestReservePaymentUsesScaledPrices(t *testing.T) {
	// Regression for the scaled-price reserve bug: the pivotal-winner
	// reserve was derived from competitors' RAW prices J_ij while every
	// other payment in the round lives in the scaled domain ∇_ij, so a
	// pivotal winner was underpaid whenever its competitors carried a
	// positive dual ψ.
	//
	// Round 1 gives bidder 2 a positive ψ: it wins at price 8 with
	// capacity Θ=2 and α=1, so ψ_2 = 8·1/(1·2·2) = 2. In round 2 bidder
	// 2's bid is priced 20 raw but 22 scaled; bidder 1 is pivotal for
	// needy 0, so its auto-derived reserve must be the competitor's
	// SCALED price 22, not the raw 20.
	m := NewMSOA(MSOAConfig{DefaultCapacity: 2, Alpha: 1})
	r1 := m.RunRound(Round{T: 1, Instance: &Instance{
		Demand: []int{1},
		Bids: []Bid{
			{Bidder: 1, Alt: 0, Price: 50, TrueCost: 50, Covers: []int{0}, Units: 1},
			{Bidder: 2, Alt: 0, Price: 8, TrueCost: 8, Covers: []int{0}, Units: 1},
		},
	}})
	if r1.Err != nil {
		t.Fatalf("round 1: %v", r1.Err)
	}
	if len(r1.Outcome.Winners) != 1 || r1.Outcome.Winners[0] != 1 {
		t.Fatalf("round 1: want bidder 2's bid to win, got %v", r1.Outcome.Winners)
	}
	if psi := m.Psi(2); math.Abs(psi-2) > 1e-12 {
		t.Fatalf("psi_2 = %v, want 2", psi)
	}

	r2 := m.RunRound(Round{T: 2, Instance: &Instance{
		Demand: []int{1, 1},
		Bids: []Bid{
			{Bidder: 1, Alt: 0, Price: 5, TrueCost: 5, Covers: []int{0}, Units: 1},
			{Bidder: 2, Alt: 0, Price: 20, TrueCost: 20, Covers: []int{1}, Units: 1},
		},
	}})
	if r2.Err != nil {
		t.Fatalf("round 2: %v", r2.Err)
	}
	if math.Abs(r2.Scaled[1]-22) > 1e-12 {
		t.Fatalf("round 2 scaled price of bidder 2 = %v, want 22", r2.Scaled[1])
	}
	if len(r2.Outcome.Winners) != 2 {
		t.Fatalf("round 2: want both bids to win, got %v", r2.Outcome.Winners)
	}
	if pay := r2.Outcome.Payments[0]; math.Abs(pay-22) > 1e-12 {
		t.Fatalf("pivotal winner payment = %v, want the competitor's scaled price 22", pay)
	}
}

func TestDefaultCapacitySetZeroExcludesUnlistedBidders(t *testing.T) {
	// DefaultCapacitySet distinguishes "unset, unlimited" from an explicit
	// zero default: with the sentinel, bidders without a Capacity entry
	// may not share at all.
	m := NewMSOA(MSOAConfig{DefaultCapacitySet: true, DefaultCapacity: 0, Capacity: map[int]int{1: 5}})
	res := m.RunRound(Round{T: 1, Instance: &Instance{
		Demand: []int{1},
		Bids: []Bid{
			{Bidder: 2, Alt: 0, Price: 1, TrueCost: 1, Covers: []int{0}, Units: 1},
			{Bidder: 1, Alt: 0, Price: 9, TrueCost: 9, Covers: []int{0}, Units: 1},
		},
	}})
	if res.Err != nil {
		t.Fatalf("round failed: %v", res.Err)
	}
	if len(res.Excluded) != 1 || res.Excluded[0] != 0 {
		t.Fatalf("want unlisted bidder 2's bid excluded, got excluded=%v", res.Excluded)
	}
	if len(res.Outcome.Winners) != 1 || res.Outcome.Winners[0] != 1 {
		t.Fatalf("want listed bidder 1 to win, got %v", res.Outcome.Winners)
	}

	// Without the sentinel, DefaultCapacity zero keeps meaning unlimited
	// and the cheap unlisted bidder wins.
	m2 := NewMSOA(MSOAConfig{Capacity: map[int]int{1: 5}})
	res2 := m2.RunRound(Round{T: 1, Instance: &Instance{
		Demand: []int{1},
		Bids: []Bid{
			{Bidder: 2, Alt: 0, Price: 1, TrueCost: 1, Covers: []int{0}, Units: 1},
			{Bidder: 1, Alt: 0, Price: 9, TrueCost: 9, Covers: []int{0}, Units: 1},
		},
	}})
	if res2.Err != nil {
		t.Fatalf("round failed: %v", res2.Err)
	}
	if len(res2.Outcome.Winners) != 1 || res2.Outcome.Winners[0] != 0 {
		t.Fatalf("unset default must stay unlimited; want bidder 2 to win, got %v", res2.Outcome.Winners)
	}
}

// TestTotalPaymentDeterministic guards the summation order of
// Outcome.TotalPayment. Payments live in a map; summing them in Go's
// randomized iteration order made the total differ in the last ULP
// between identical runs, which flipped the hashed platform state the
// WAL and chaos harnesses compare byte-for-byte. The fix sums in
// ascending bid-index order, so repeated calls must be bit-identical.
func TestTotalPaymentDeterministic(t *testing.T) {
	out := &Outcome{Payments: map[int]float64{}}
	for i := 0; i < 64; i++ {
		out.Payments[i] = 0.1 * float64(i+1) // 0.1 is inexact in binary: order matters
	}
	want := out.TotalPayment()
	for i := 0; i < 200; i++ {
		if got := out.TotalPayment(); got != want {
			t.Fatalf("call %d: TotalPayment %v, want %v (summation order leaked)", i, got, want)
		}
	}
}

// BenchmarkMSOAMarketDense times warm MSOA rounds on an instance shaped
// like perfbench's market-dense workload, without the TCP harness: 1,000
// bidders × 8 alternative bids, each covering 3–6 of 64 needy services at
// demand 7 with one unit; Θ = 4 for bidders 1–500, so capacity exclusion
// engages, and 100,000 for the rest, so ψ scaling engages on every win.
// Every round clears the same bids, as in perfbench, after 40 warm-up
// rounds; Options are the defaults the platform clears with (certificate
// on, Parallelism = GOMAXPROCS). A warm round excludes 2,418 bids and
// picks 117 winners, so the critical-value payment replays are most of
// its time.
func BenchmarkMSOAMarketDense(b *testing.B) {
	const bidders, alts, needy, demand = 1000, 8, 64, 7
	rng := rand.New(rand.NewSource(1))
	ins := &Instance{Demand: make([]int, needy)}
	for k := range ins.Demand {
		ins.Demand[k] = demand
	}
	capacity := make(map[int]int, bidders)
	for id := 1; id <= bidders; id++ {
		capacity[id] = 100000
		if id <= bidders/2 {
			capacity[id] = 4
		}
		for alt := 0; alt < alts; alt++ {
			covers := rng.Perm(needy)[:3+rng.Intn(4)]
			price := math.Round((1+9*rng.Float64())*float64(len(covers))*100) / 100
			ins.Bids = append(ins.Bids, Bid{
				Bidder: id, Alt: alt, Price: price, TrueCost: price, Covers: covers, Units: 1,
			})
		}
	}
	m := NewMSOA(MSOAConfig{Capacity: capacity})
	t := 0
	round := func() {
		t++
		if res := m.RunRound(Round{T: t, Instance: ins}); res.Err != nil {
			b.Fatalf("round %d: %v", t, res.Err)
		}
	}
	for i := 0; i < 40; i++ {
		round()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
}
