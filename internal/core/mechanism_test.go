package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"
)

// --- registry and spec parsing ---

func TestMechanismRegistryBuiltins(t *testing.T) {
	names := MechanismNames()
	for _, want := range []string{NameSSAM, NameBudgetedSSAM, NamePostedPrice, NameDoubleAuction} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("builtin %q missing from registry (have %v)", want, names)
		}
	}

	mech, err := NewMechanism(MechanismSpec{})
	if err != nil {
		t.Fatalf("zero spec: %v", err)
	}
	if mech.Name() != NameSSAM {
		t.Fatalf("zero spec resolved to %q, want ssam", mech.Name())
	}
	if _, ok := mech.(ScaledMechanism); !ok {
		t.Fatal("ssam mechanism must implement ScaledMechanism")
	}

	if _, err := NewMechanism(MechanismSpec{Name: "no-such-mechanism"}); err == nil {
		t.Fatal("unknown mechanism name must error")
	}
	if _, err := NewMechanism(MechanismSpec{Name: NameBudgetedSSAM}); err == nil {
		t.Fatal("budgeted-ssam without a budget must error")
	}
	if _, err := NewMechanism(MechanismSpec{Name: NameBudgetedSSAM, Budget: 100}); err != nil {
		t.Fatalf("budgeted-ssam with budget: %v", err)
	}

	da, err := NewMechanism(MechanismSpec{Name: NameDoubleAuction})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := da.(Stateful); !ok {
		t.Fatal("double auction must implement Stateful")
	}
	if _, ok := da.(SettlementReporter); !ok {
		t.Fatal("double auction must implement SettlementReporter")
	}
}

func TestRegisterMechanismDuplicatePanics(t *testing.T) {
	// The registry is process-global: unregister the probe so a repeated
	// run (go test -count=2) registers it afresh.
	t.Cleanup(func() {
		mechanisms.Lock()
		delete(mechanisms.byName, "test-dup-probe")
		mechanisms.Unlock()
	})
	RegisterMechanism("test-dup-probe", func(MechanismSpec) (Mechanism, error) {
		return ssamMechanism{}, nil
	})
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration must panic")
		}
	}()
	RegisterMechanism("test-dup-probe", func(MechanismSpec) (Mechanism, error) {
		return ssamMechanism{}, nil
	})
}

func TestParseMechanismSpec(t *testing.T) {
	cases := []struct {
		in   string
		want MechanismSpec
	}{
		{"", MechanismSpec{}},
		{"ssam", MechanismSpec{Name: NameSSAM}},
		{"budgeted-ssam:budget=500", MechanismSpec{Name: NameBudgetedSSAM, Budget: 500}},
		{"posted-price", MechanismSpec{Name: NamePostedPrice}},
		{"posted-price:epsilon=0.05,lo=12,hi=30,safety=2", MechanismSpec{
			Name:        NamePostedPrice,
			PostedPrice: &PostedPriceConfig{Epsilon: 0.05, PriceLo: 12, PriceHi: 30, Safety: 2},
		}},
		{"posted-price:eps=0.05,price_lo=12,price_hi=30", MechanismSpec{
			Name:        NamePostedPrice,
			PostedPrice: &PostedPriceConfig{Epsilon: 0.05, PriceLo: 12, PriceHi: 30},
		}},
		{"double-auction:discount=0.8,overbook=1.5,penalty=0.25", MechanismSpec{
			Name:          NameDoubleAuction,
			DoubleAuction: &DoubleAuctionConfig{Discount: 0.8, Overbook: 1.5, PenaltyRate: 0.25},
		}},
		{"double-auction:penalty_rate=0.25", MechanismSpec{
			Name:          NameDoubleAuction,
			DoubleAuction: &DoubleAuctionConfig{PenaltyRate: 0.25},
		}},
	}
	for _, tc := range cases {
		got, err := ParseMechanismSpec(tc.in)
		if err != nil {
			t.Errorf("parse %q: %v", tc.in, err)
			continue
		}
		var set MechanismSpec // the flag.Value path must parse identically
		if err := set.Set(tc.in); err != nil || set.String() != got.String() {
			t.Errorf("Set(%q) = %v, %v; want %v", tc.in, set, err, got)
		}
		if got.Name != tc.want.Name || got.Budget != tc.want.Budget {
			t.Errorf("parse %q = %+v, want %+v", tc.in, got, tc.want)
		}
		if (got.PostedPrice == nil) != (tc.want.PostedPrice == nil) ||
			(got.PostedPrice != nil && *got.PostedPrice != *tc.want.PostedPrice) {
			t.Errorf("parse %q posted-price = %+v, want %+v", tc.in, got.PostedPrice, tc.want.PostedPrice)
		}
		if (got.DoubleAuction == nil) != (tc.want.DoubleAuction == nil) ||
			(got.DoubleAuction != nil && *got.DoubleAuction != *tc.want.DoubleAuction) {
			t.Errorf("parse %q double-auction = %+v, want %+v", tc.in, got.DoubleAuction, tc.want.DoubleAuction)
		}
	}

	for _, bad := range []string{
		"no-such-mechanism",          // unregistered name
		"posted-price:bogus=1",       // unknown parameter
		"posted-price:epsilon",       // not key=val
		"double-auction:overbook=x",  // not a number
		"no-such-mechanism:param=1",  // unknown name takes no params
		"budgeted-ssam:epsilon=0.05", // parameter of another mechanism
		"budgeted-ssam:budget=NaN",   // not finite
		"budgeted-ssam:budget=Inf",
		"budgeted-ssam:budget=-Inf",
		"double-auction:discount=NaN",
		"posted-price:safety=+Inf",
		"budgeted-ssam:budget=1,budget=2",             // repeated key
		"posted-price:epsilon=0.1,eps=0.2",            // one setting under two aliases
		"posted-price:price_hi=30,hi=40",              // aliases in the other order
		"double-auction:penalty=0.2,penalty_rate=0.3", // aliases of the penalty rate
		"posted-price:lo=10, lo=10",                   // repeated even when equal
	} {
		if _, err := ParseMechanismSpec(bad); err == nil {
			t.Errorf("parse %q: want error, got none", bad)
		}
		if err := new(MechanismSpec).Set(bad); err == nil {
			t.Errorf("Set(%q): want error, got none", bad)
		}
	}
}

func TestMechanismSpecStringRoundTrip(t *testing.T) {
	specs := []MechanismSpec{
		{},
		{Name: NameBudgetedSSAM, Budget: 750},
		{Name: NamePostedPrice, PostedPrice: &PostedPriceConfig{Epsilon: 0.05, PriceHi: 40}},
		{Name: NameDoubleAuction, DoubleAuction: &DoubleAuctionConfig{Overbook: 1.5}},
	}
	for _, spec := range specs {
		s := spec.String()
		back, err := ParseMechanismSpec(s)
		if err != nil {
			t.Errorf("reparse %q: %v", s, err)
			continue
		}
		if back.String() != s {
			t.Errorf("round trip %q -> %q", s, back.String())
		}
	}
	if s := (MechanismSpec{}).String(); s != NameSSAM {
		t.Errorf("zero spec renders %q, want %q", s, NameSSAM)
	}
}

// --- dispatch ---

// TestRunMechanismZeroSpecMatchesSSAM: the one-shot API with the zero
// spec must be bit-identical to calling SSAM directly.
func TestRunMechanismZeroSpecMatchesSSAM(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	opts := Options{SkipCertificate: true}
	for trial := 0; trial < 25; trial++ {
		ins := randomInstance(rng, 4+rng.Intn(8), 2+rng.Intn(3), 1+rng.Intn(3))
		want, err1 := SSAM(ins, opts)
		got, err2 := RunMechanism(MechanismSpec{}, ins, opts)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("trial %d: error mismatch %v vs %v", trial, err1, err2)
		}
		if err1 != nil {
			continue
		}
		if !want.Equal(got) {
			t.Fatalf("trial %d: RunMechanism(zero) diverged from SSAM", trial)
		}
	}
}

// TestMSOABadMechanismSurfacesPerRound: a spec that fails to resolve must
// not panic at construction; every round reports the resolution error.
func TestMSOABadMechanismSurfacesPerRound(t *testing.T) {
	m := NewMSOA(MSOAConfig{Mechanism: MechanismSpec{Name: NameBudgetedSSAM}}) // budget missing
	res := m.RunRound(simpleRound(1, 1, 10, 20))
	if res.Err == nil {
		t.Fatal("unresolvable mechanism spec must surface as a round error")
	}
	if !strings.Contains(res.Err.Error(), "budget") {
		t.Fatalf("round error should carry the factory error, got: %v", res.Err)
	}
}

// TestMSOANonScaledMechanismSkipsPsi: a plain Mechanism (no ClearScaled)
// must leave MSOA's ψ duals untouched — the Lemma-4 update is defined on
// scaled prices only.
func TestMSOANonScaledMechanismSkipsPsi(t *testing.T) {
	m := NewMSOA(MSOAConfig{
		DefaultCapacity: 2,
		Mechanism:       MechanismSpec{Name: NameDoubleAuction},
	})
	for r := 1; r <= 3; r++ {
		m.RunRound(simpleRound(r, 1, 10, 20, 30))
	}
	for bidder := 1; bidder <= 3; bidder++ {
		if psi := m.Psi(bidder); psi != 0 {
			t.Fatalf("bidder %d ψ = %v under a non-scaled mechanism, want 0", bidder, psi)
		}
	}
	if m.Mechanism() == nil || m.Mechanism().Name() != NameDoubleAuction {
		t.Fatal("MSOA should expose the resolved mechanism")
	}
}

// TestMSOAMechanismsLeaveRoundUntouched pins the Mechanism borrow
// contract for every built-in: on rounds without exclusions MSOA hands
// the round's instance and res.Scaled to the mechanism uncopied, so after
// each round — and after every later round, which would show a kept
// reference written to — each instance must still equal its clone taken
// before the round, and each res.Scaled the prices MSOA derived.
func TestMSOAMechanismsLeaveRoundUntouched(t *testing.T) {
	specs := []MechanismSpec{
		{Name: NameSSAM},
		{Name: NameBudgetedSSAM, Budget: 1e6},
		{Name: NamePostedPrice},
		{Name: NameDoubleAuction},
	}
	for _, spec := range specs {
		rng := rand.New(rand.NewSource(71))
		// Θ is finite, so ψ grows and the scaled prices move, but too
		// large for any bid to be excluded.
		m := NewMSOA(MSOAConfig{DefaultCapacity: 1000, Mechanism: spec, Options: Options{Parallelism: 2}})
		var rounds []*Instance
		var clones []*Instance
		var results []*RoundResult
		var scaled [][]float64
		cleared := 0
		for r := 1; r <= 6; r++ {
			ins := randomInstance(rng, 6+rng.Intn(10), 2+rng.Intn(3), 1+rng.Intn(3))
			want := make([]float64, len(ins.Bids))
			for i, b := range ins.Bids {
				want[i] = b.Price + float64(len(b.Covers))*m.Psi(b.Bidder)
			}
			rounds, clones, scaled = append(rounds, ins), append(clones, ins.Clone()), append(scaled, want)
			res := m.RunRound(Round{T: r, Instance: ins})
			results = append(results, res)
			if res.Err != nil && !errors.Is(res.Err, ErrInfeasible) {
				t.Fatalf("%s round %d: %v", spec, r, res.Err)
			}
			if res.Err == nil && len(res.Outcome.Winners) > 0 {
				cleared++
			}
			if len(res.Excluded) != 0 {
				t.Fatalf("%s round %d: %d bids excluded, want none", spec, r, len(res.Excluded))
			}
			for x := range rounds {
				if !reflect.DeepEqual(rounds[x], clones[x]) {
					t.Fatalf("%s: round %d's instance changed by round %d", spec, x+1, r)
				}
				if !reflect.DeepEqual(results[x].Scaled, scaled[x]) {
					t.Fatalf("%s: round %d's scaled prices changed by round %d\n got %v\nwant %v", spec, x+1, r, results[x].Scaled, scaled[x])
				}
			}
		}
		if cleared == 0 {
			t.Fatalf("%s: no round cleared with winners", spec)
		}
	}
}

// --- posted price ---

// TestPostedPriceTruthfulBestResponse is the property test behind the
// arena's regret column: on single-bid (J=1) instances no unilateral
// price misreport may increase a bidder's utility. Infeasible clears are
// zero-utility outcomes.
func TestPostedPriceTruthfulBestResponse(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	opts := Options{SkipCertificate: true}
	spec := MechanismSpec{Name: NamePostedPrice}
	factors := []float64{0.3, 0.5, 0.8, 0.95, 1.05, 1.3, 1.8, 3}
	probes := 0
	for trial := 0; trial < 40; trial++ {
		ins := randomInstance(rng, 4+rng.Intn(8), 2+rng.Intn(3), 1)
		truthful, err := RunMechanism(spec, ins, opts)
		if err != nil && !errors.Is(err, ErrInfeasible) {
			t.Fatal(err)
		}
		for target := range ins.Bids {
			base := probeOutcomeUtility(truthful, ins, target)
			for _, f := range factors {
				dev := ins.Clone()
				dev.Bids[target].Price = ins.Bids[target].TrueCost * f
				out, err := RunMechanism(spec, dev, opts)
				if err != nil && !errors.Is(err, ErrInfeasible) {
					t.Fatal(err)
				}
				probes++
				if gain := probeOutcomeUtility(out, ins, target) - base; gain > 1e-9 {
					t.Fatalf("trial %d bidder %d factor %.2f: misreport gains %.9f — posted price must be truthful for J=1",
						trial, ins.Bids[target].Bidder, f, gain)
				}
			}
		}
	}
	if probes < 1000 {
		t.Fatalf("only %d probes ran — generator drifted?", probes)
	}
}

// probeOutcomeUtility is the target's utility with TrueCost taken from
// the original instance (misreports change only the report).
func probeOutcomeUtility(out *Outcome, ins *Instance, idx int) float64 {
	if out == nil || !out.Won(idx) {
		return 0
	}
	return out.Payments[idx] - ins.Bids[idx].TrueCost
}

// TestPostedPriceLevelIgnoresReports: the posted level may depend on the
// demand and cover structure but never on reported prices.
func TestPostedPriceLevelIgnoresReports(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	p := NewPostedPrice(PostedPriceConfig{})
	for trial := 0; trial < 20; trial++ {
		ins := randomInstance(rng, 5+rng.Intn(6), 2+rng.Intn(3), 1+rng.Intn(2))
		level := p.PostedLevel(ins)
		scaled := ins.Clone()
		for i := range scaled.Bids {
			scaled.Bids[i].Price *= 0.1 + 5*rng.Float64()
		}
		if got := p.PostedLevel(scaled); got != level {
			t.Fatalf("trial %d: level moved %v -> %v when only reports changed", trial, level, got)
		}
	}
}

// TestPostedPricePaysPostedLevel: every winner is paid exactly π and π
// covers its report (IR).
func TestPostedPricePaysPostedLevel(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	p := NewPostedPrice(PostedPriceConfig{})
	cleared := 0
	for trial := 0; trial < 40; trial++ {
		ins := randomInstance(rng, 6+rng.Intn(6), 2+rng.Intn(3), 1)
		out, err := p.Clear(ins, Options{})
		if errors.Is(err, ErrInfeasible) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		cleared++
		level := p.PostedLevel(ins)
		for _, w := range out.Winners {
			if out.Payments[w] != level {
				t.Fatalf("winner %d paid %v, want posted level %v", w, out.Payments[w], level)
			}
			if ins.Bids[w].Price > level {
				t.Fatalf("winner %d reported %v above the level %v — IR broken", w, ins.Bids[w].Price, level)
			}
		}
		if err := VerifyFeasible(ins, out); err != nil {
			t.Fatalf("posted-price outcome infeasible: %v", err)
		}
	}
	if cleared == 0 {
		t.Fatal("no instance cleared — defaults too strict for the generator?")
	}
}

// --- double auction ---

// daRounds generates a deterministic multi-round workload with churn:
// bidders drop in and out so the futures book sees no-shows.
func daRounds(seed int64, rounds int) []Round {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Round, 0, rounds)
	for r := 1; r <= rounds; r++ {
		ins := randomInstance(rng, 4+rng.Intn(6), 2+rng.Intn(2), 1+rng.Intn(2))
		if rng.Intn(2) == 0 && len(ins.Bids) > 2 {
			// Drop a random non-reserve bidder's bids: booked reservations
			// from the previous round turn into no-shows.
			drop := 1 + rng.Intn(3)
			kept := ins.Bids[:0]
			for _, b := range ins.Bids {
				if b.Bidder != drop {
					kept = append(kept, b)
				}
			}
			ins.Bids = kept
		}
		out = append(out, Round{T: r, Instance: ins})
	}
	return out
}

// TestDoubleAuctionSettlementConservesBudget: on every feasible round the
// outcome's total payment must equal FuturesPaid + SpotPaid exactly, the
// penalty bound must verify, and every payment must cover the winning
// report (IR).
func TestDoubleAuctionSettlementConservesBudget(t *testing.T) {
	d := NewDoubleAuction(DoubleAuctionConfig{})
	var penalties float64
	feasible := 0
	for _, r := range daRounds(81, 40) {
		out, err := d.Clear(r.Instance, Options{})
		st := d.LastSettlement()
		if st == nil {
			t.Fatal("settlement missing after Clear")
		}
		if verr := VerifyPenaltyBound(st, d.SettlementConfig()); verr != nil {
			t.Fatalf("round %d: %v", r.T, verr)
		}
		penalties += st.Penalties
		if errors.Is(err, ErrInfeasible) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		feasible++
		if settled, paid := st.FuturesPaid+st.SpotPaid, out.TotalPayment(); math.Abs(settled-paid) > 1e-6 {
			t.Fatalf("round %d: settlement %v != total payment %v", r.T, settled, paid)
		}
		for _, w := range out.Winners {
			if out.Payments[w] < r.Instance.Bids[w].Price-1e-9 {
				t.Fatalf("round %d winner %d paid %v below report %v — IR broken",
					r.T, w, out.Payments[w], r.Instance.Bids[w].Price)
			}
		}
		if err := VerifyFeasible(r.Instance, out); err != nil {
			t.Fatalf("round %d: %v", r.T, err)
		}
	}
	if feasible == 0 {
		t.Fatal("no feasible rounds — workload too harsh")
	}
	if math.Abs(penalties-d.TotalPenalties()) > 1e-9 {
		t.Fatalf("per-round penalties sum %v != TotalPenalties %v", penalties, d.TotalPenalties())
	}
}

// TestDoubleAuctionDeterministicReplay: two fresh books fed the same
// round sequence must produce bit-identical outcomes and settlements —
// the property WAL replay and the chaos shadow depend on.
func TestDoubleAuctionDeterministicReplay(t *testing.T) {
	run := func() ([]*Outcome, []Settlement) {
		d := NewDoubleAuction(DoubleAuctionConfig{})
		var outs []*Outcome
		var sts []Settlement
		for _, r := range daRounds(83, 25) {
			out, _ := d.Clear(r.Instance, Options{})
			outs = append(outs, out)
			sts = append(sts, *d.LastSettlement())
		}
		return outs, sts
	}
	o1, s1 := run()
	o2, s2 := run()
	for i := range o1 {
		if (o1[i] == nil) != (o2[i] == nil) {
			t.Fatalf("round %d: feasibility diverged", i+1)
		}
		if o1[i] != nil && !o1[i].Equal(o2[i]) {
			t.Fatalf("round %d: outcomes diverged", i+1)
		}
		if s1[i] != s2[i] {
			t.Fatalf("round %d: settlements diverged: %+v vs %+v", i+1, s1[i], s2[i])
		}
	}
}

// TestDoubleAuctionNoShowPenalty: a booked bidder that vanishes next
// round is charged exactly PenaltyRate × its committed futures price.
// Discount is 1 so the bidders that stay re-report exactly their
// commitment and execute (with δ<1 a constant-price bidder re-reports
// ABOVE its discounted commitment and settles as a seller deviation).
func TestDoubleAuctionNoShowPenalty(t *testing.T) {
	cfg := DoubleAuctionConfig{Discount: 1, Overbook: 10, PenaltyRate: 0.5}
	d := NewDoubleAuction(cfg)
	r1 := simpleRound(1, 1, 10, 20, 30)
	if _, err := d.Clear(r1.Instance, Options{}); err != nil {
		t.Fatal(err)
	}
	if d.BookSize() == 0 {
		t.Fatal("nothing booked after round 1")
	}
	// Round 2 without bidder 1 (the cheapest, certainly booked at 0.9×10).
	r2 := Round{T: 2, Instance: &Instance{
		Demand: []int{1},
		Bids: []Bid{
			{Bidder: 2, Price: 20, TrueCost: 20, Covers: []int{0}, Units: 1},
			{Bidder: 3, Price: 30, TrueCost: 30, Covers: []int{0}, Units: 1},
		},
	}}
	if _, err := d.Clear(r2.Instance, Options{}); err != nil {
		t.Fatal(err)
	}
	st := d.LastSettlement()
	if st.NoShows != 1 {
		t.Fatalf("no-shows = %d, want 1 (settlement %+v)", st.NoShows, st)
	}
	if st.Executed != 2 {
		t.Fatalf("executed = %d, want 2 (settlement %+v)", st.Executed, st)
	}
	wantPenalty := cfg.PenaltyRate * cfg.Discount * 10
	if math.Abs(st.Penalties-wantPenalty) > 1e-9 {
		t.Fatalf("penalty %v, want %v", st.Penalties, wantPenalty)
	}
	if err := VerifyPenaltyBound(st, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestDoubleAuctionReset: Reset must void the book and the penalty tally.
func TestDoubleAuctionReset(t *testing.T) {
	d := NewDoubleAuction(DoubleAuctionConfig{})
	r := simpleRound(1, 1, 10, 20)
	if _, err := d.Clear(r.Instance, Options{}); err != nil {
		t.Fatal(err)
	}
	d.Reset()
	if d.BookSize() != 0 || d.LastSettlement() != nil || d.TotalPenalties() != 0 {
		t.Fatal("Reset left state behind")
	}
}

// TestVerifyPenaltyBoundRejectsRiggedSettlements: every invariant of the
// penalty bound must trip on a violating settlement.
func TestVerifyPenaltyBoundRejectsRiggedSettlements(t *testing.T) {
	cfg := DoubleAuctionConfig{PenaltyRate: 0.5}
	cases := []struct {
		name string
		st   Settlement
	}{
		{"negative penalties", Settlement{Penalties: -1}},
		{"penalties above rate bound", Settlement{BookedValue: 100, NoShowValue: 10, Penalties: 20}},
		{"futures paid above booked", Settlement{BookedValue: 10, FuturesPaid: 15}},
		{"defaulted above booked", Settlement{BookedValue: 10, NoShowValue: 15, Penalties: 0}},
	}
	for _, tc := range cases {
		if err := VerifyPenaltyBound(&tc.st, cfg); err == nil {
			t.Errorf("%s: want violation, got none", tc.name)
		}
	}
	if err := VerifyPenaltyBound(nil, cfg); err == nil {
		t.Error("nil settlement: want error")
	}
	ok := Settlement{BookedValue: 100, FuturesPaid: 60, NoShowValue: 40, Penalties: 20}
	if err := VerifyPenaltyBound(&ok, cfg); err != nil {
		t.Errorf("clean settlement rejected: %v", err)
	}
}

// TestPostedPriceRejectsEndlessGrid: a configuration whose geometric grid
// walk would not end — 1+ε rounding to 1, or ~10¹² levels — fails with an
// error at NewMechanism and at Clear instead of hanging the round. The
// narrow-range case has a grid count that log1p(ε) would put under the
// bound, although its float64 step 1+ε is exactly 1.
func TestPostedPriceRejectsEndlessGrid(t *testing.T) {
	ins := &Instance{Demand: []int{1}, Bids: []Bid{
		{Bidder: 1, Price: 12, TrueCost: 12, Covers: []int{0}, Units: 1},
	}}
	withDeadline := func(label string, f func() error) {
		t.Helper()
		done := make(chan error, 1)
		go func() { done <- f() }()
		select {
		case err := <-done:
			if err == nil {
				t.Errorf("%s: want an error, got none", label)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: no answer within 5s: the grid walk does not end", label)
		}
	}
	for _, in := range []string{
		"posted-price:epsilon=1e-17",
		"posted-price:epsilon=1e-12",
		"posted-price:lo=10,hi=10.00000000001,epsilon=1e-18",
	} {
		spec, err := ParseMechanismSpec(in)
		if err != nil {
			t.Fatalf("parse %q: %v", in, err)
		}
		withDeadline("NewMechanism("+in+")", func() error {
			_, err := NewMechanism(spec)
			return err
		})
		withDeadline("Clear("+in+")", func() error {
			_, err := NewPostedPrice(*spec.PostedPrice).Clear(ins, Options{})
			return err
		})
	}
	for _, cfg := range []PostedPriceConfig{
		{PriceLo: math.Inf(1)},
		{PriceHi: math.NaN()},
		{Safety: math.NaN()},
		{Epsilon: math.NaN()},
	} {
		withDeadline(fmt.Sprintf("Clear(%+v)", cfg), func() error {
			_, err := NewPostedPrice(cfg).Clear(ins, Options{})
			return err
		})
	}
	// The grids the repository runs stay valid.
	for _, eps := range []float64{0, 0.05, 0.1} {
		if _, err := NewPostedPrice(PostedPriceConfig{Epsilon: eps}).Clear(ins, Options{}); err != nil {
			t.Errorf("epsilon %v: %v", eps, err)
		}
	}
}

// FuzzParseMechanismSpec fuzzes the -mechanism flag parser: it must never
// panic; an accepted spec's String() must re-parse to the same String();
// and NewMechanism on an accepted spec must either fail or clear a fixed
// three-bid instance (with or without an error, but promptly).
func FuzzParseMechanismSpec(f *testing.F) {
	for _, s := range []string{
		"", "ssam", "budgeted-ssam:budget=500",
		"posted-price:epsilon=0.05,lo=10,hi=35",
		"posted-price:eps=0.05,price_lo=12,price_hi=30,safety=2",
		"double-auction:discount=0.9,overbook=1.25,penalty=0.5",
		"double-auction:penalty_rate=0.25",
		"budgeted-ssam:budget=NaN", "budgeted-ssam:budget=Inf",
		"double-auction:discount=NaN",
		"budgeted-ssam:budget=1,budget=2",
		"posted-price:epsilon=0.1,eps=0.2",
		"posted-price:epsilon=1e-17", "posted-price:epsilon=1e-12",
		"posted-price:lo=10,hi=10.00000000001,epsilon=1e-18",
		"no-such-mechanism:param=1", ":", "ssam:,,",
	} {
		f.Add(s)
	}
	ins := &Instance{Demand: []int{2}, Bids: []Bid{
		{Bidder: 1, Price: 12, TrueCost: 12, Covers: []int{0}, Units: 1},
		{Bidder: 2, Price: 20, TrueCost: 20, Covers: []int{0}, Units: 1},
		{Bidder: 3, Price: 31, TrueCost: 31, Covers: []int{0}, Units: 1},
	}}
	f.Fuzz(func(t *testing.T, in string) {
		spec, err := ParseMechanismSpec(in)
		if err != nil {
			return
		}
		back, err := ParseMechanismSpec(spec.String())
		if err != nil {
			t.Fatalf("%q: String() %q does not re-parse: %v", in, spec.String(), err)
		}
		if back.String() != spec.String() {
			t.Fatalf("%q: String() %q re-parses to %q", in, spec.String(), back.String())
		}
		mech, err := NewMechanism(spec)
		if err != nil {
			return
		}
		_, _ = mech.Clear(ins, Options{Parallelism: 1})
	})
}
