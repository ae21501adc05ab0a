package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func dualString(d *DualCertificate) string {
	if d == nil {
		return "<nil>"
	}
	return fmt.Sprintf("{W=%v Xi=%v Primal=%v Obj=%v Y=%v Z=%v}",
		d.W, d.Xi, d.Primal, d.DualObjective, d.Y, d.Z)
}

// This file is the standing differential gate between the optimized kernel
// (kernel.go: CSR covers, lazy-rescore heaps, checkpointed payment
// replays) and the straightforward seed implementation preserved in
// reference_test.go. Every comparison is EXACT — Outcome.Equal applies no
// epsilon — because the kernel's optimizations are designed to preserve the
// float64 operation sequence bit for bit.

// diffOptionGrid enumerates every option combination the differential tests
// sweep: both greedy metrics, both payment rules, the three reserve
// configurations (auto-derive, explicit zero, explicit non-zero), both
// certificate modes, and parallelism 1 and 4.
func diffOptionGrid() []Options {
	var grid []Options
	for _, metric := range []GreedyMetric{PricePerCoverage, LowestPrice} {
		for _, payment := range []PaymentRule{CriticalValue, FirstPrice} {
			for _, reserve := range []Options{
				{},
				{ReserveSet: true, Reserve: 0},
				{Reserve: 40},
			} {
				for _, skipCert := range []bool{false, true} {
					for _, par := range []int{1, 4} {
						grid = append(grid, Options{
							Metric:          metric,
							Payment:         payment,
							Reserve:         reserve.Reserve,
							ReserveSet:      reserve.ReserveSet,
							SkipCertificate: skipCert,
							Parallelism:     par,
						})
					}
				}
			}
		}
	}
	return grid
}

// tieProneInstance generates instances whose scores collide exactly: prices
// from a small discrete grid and units in {1, 2} make equal
// price-per-coverage ratios common, exercising the lowest-index tie-break
// on both paths.
func tieProneInstance(rng *rand.Rand, bidders, needy, bidsPer int) *Instance {
	prices := []float64{8, 10, 12, 16, 24}
	ins := &Instance{Demand: make([]int, needy)}
	for k := range ins.Demand {
		ins.Demand[k] = 1 + rng.Intn(4)
	}
	for b := 1; b <= bidders; b++ {
		for j := 0; j < bidsPer; j++ {
			n := 1 + rng.Intn(needy)
			covers := rng.Perm(needy)[:n]
			sortInts(covers)
			p := prices[rng.Intn(len(prices))]
			ins.Bids = append(ins.Bids, Bid{
				Bidder: b, Alt: j, Price: p, TrueCost: p,
				Covers: covers, Units: 1 + rng.Intn(2),
			})
		}
	}
	// Feasibility reserve supplier (mirrors randomInstance).
	maxD := 0
	all := make([]int, needy)
	for k, d := range ins.Demand {
		all[k] = k
		if d > maxD {
			maxD = d
		}
	}
	ins.Bids = append(ins.Bids, Bid{
		Bidder: bidders + 1, Price: 30 * float64(ins.TotalDemand()),
		TrueCost: 30 * float64(ins.TotalDemand()),
		Covers:   all, Units: maxD,
	})
	return ins
}

// saturationHeavyInstance stresses the lazy-rescore kernel where it is most
// at risk: prefix-nested cover sets over a tiny-demand needy set saturate θ
// within a few iterations, so most bids go dead mid-run and persist only as
// lazily-undiscovered heap entries and retained checkpoint candidates, while
// prices proportional to cover size make almost every live bid carry the
// IDENTICAL price-per-coverage score — every pop is an exact tie resolved
// purely by the lowest-bid-index rule.
func saturationHeavyInstance(rng *rand.Rand, bidders, needy, bidsPer int) *Instance {
	ins := &Instance{Demand: make([]int, needy)}
	for k := range ins.Demand {
		ins.Demand[k] = 1 + rng.Intn(2)
	}
	for b := 1; b <= bidders; b++ {
		for j := 0; j < bidsPer; j++ {
			n := 1 + rng.Intn(needy)
			covers := make([]int, n)
			for i := range covers {
				covers[i] = i // prefix covers: heavy overlap on low needy indices
			}
			price := 10 * float64(n) // unit bids all score exactly 10
			if rng.Intn(4) == 0 {
				price = 20 * float64(n) // a second colliding score class
			}
			units := 1
			if rng.Intn(3) == 0 {
				units = 2
			}
			ins.Bids = append(ins.Bids, Bid{
				Bidder: b, Alt: j, Price: price, TrueCost: price,
				Covers: covers, Units: units,
			})
		}
	}
	// Feasibility reserve supplier (mirrors randomInstance).
	maxD := 0
	all := make([]int, needy)
	for k, d := range ins.Demand {
		all[k] = k
		if d > maxD {
			maxD = d
		}
	}
	ins.Bids = append(ins.Bids, Bid{
		Bidder: bidders + 1, Price: 30 * float64(ins.TotalDemand()),
		TrueCost: 30 * float64(ins.TotalDemand()),
		Covers:   all, Units: maxD,
	})
	return ins
}

// assertDifferential runs both paths on (ins, scaled, opts) and fails the
// test unless errors and outcomes agree exactly.
func assertDifferential(t *testing.T, ins *Instance, scaled []float64, opts Options, label string) {
	t.Helper()
	want, wantErr := referenceSSAMScaled(ins, scaled, opts)
	got, gotErr := ssamScaled(ins, scaled, opts)
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("%s: error divergence: reference=%v kernel=%v", label, wantErr, gotErr)
	}
	if wantErr != nil {
		if wantErr.Error() != gotErr.Error() {
			t.Fatalf("%s: error text divergence: reference=%q kernel=%q", label, wantErr, gotErr)
		}
		return
	}
	if !want.Equal(got) {
		t.Fatalf("%s: outcome divergence:\nreference: winners=%v social=%v scaled=%v payments=%v dual=%s\nkernel:    winners=%v social=%v scaled=%v payments=%v dual=%s",
			label,
			want.Winners, want.SocialCost, want.ScaledCost, want.Payments, dualString(want.Dual),
			got.Winners, got.SocialCost, got.ScaledCost, got.Payments, dualString(got.Dual))
	}
}

// TestDifferentialSSAM sweeps random and tie-prone instances across the full
// option grid, in both the raw price domain and a ψ-scaled price domain
// (distinct scaled vector, as MSOA rounds produce), asserting bit-identical
// outcomes between the reference and optimized paths.
func TestDifferentialSSAM(t *testing.T) {
	grid := diffOptionGrid()
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 8; trial++ {
		var ins *Instance
		if trial%2 == 0 {
			ins = randomInstance(rng, 4+rng.Intn(8), 2+rng.Intn(4), 1+rng.Intn(3))
		} else {
			ins = tieProneInstance(rng, 4+rng.Intn(8), 2+rng.Intn(4), 1+rng.Intn(3))
		}
		raw := make([]float64, len(ins.Bids))
		psi := make([]float64, len(ins.Bids))
		factor := 1 + rng.Float64()
		for i, b := range ins.Bids {
			raw[i] = b.Price
			psi[i] = b.Price * factor
		}
		for oi, opts := range grid {
			assertDifferential(t, ins, raw, opts, labelFor(trial, oi, "raw"))
			assertDifferential(t, ins, psi, opts, labelFor(trial, oi, "psi"))
		}
	}
}

// TestDifferentialSaturationHeavy sweeps the saturation-heavy generator —
// mass mid-run deaths plus wall-to-wall exact score ties — across the full
// option grid in both price domains. This is the deterministic companion of
// the optBits&128 fuzz dimension.
func TestDifferentialSaturationHeavy(t *testing.T) {
	grid := diffOptionGrid()
	rng := rand.New(rand.NewSource(44))
	for trial := 0; trial < 6; trial++ {
		ins := saturationHeavyInstance(rng, 4+rng.Intn(12), 2+rng.Intn(5), 1+rng.Intn(3))
		raw := make([]float64, len(ins.Bids))
		psi := make([]float64, len(ins.Bids))
		factor := 1 + rng.Float64()
		for i, b := range ins.Bids {
			raw[i] = b.Price
			psi[i] = b.Price * factor
		}
		for oi, opts := range grid {
			assertDifferential(t, ins, raw, opts, labelFor(trial, oi, "sat-raw"))
			assertDifferential(t, ins, psi, opts, labelFor(trial, oi, "sat-psi"))
		}
	}
}

// shuffledBidderInstance is randomInstance with the bidder ids remapped to
// sparse ids in [1, 1000) and the bids shuffled, so one bidder's
// alternatives are scattered through the bid order and neither id order
// nor contiguity matches it.
func shuffledBidderInstance(rng *rand.Rand, bidders, needy, altsPer int) *Instance {
	ins := randomInstance(rng, bidders, needy, altsPer)
	ids := rng.Perm(999)
	for i := range ins.Bids {
		ins.Bids[i].Bidder = 1 + ids[ins.Bids[i].Bidder]
	}
	rng.Shuffle(len(ins.Bids), func(i, j int) { ins.Bids[i], ins.Bids[j] = ins.Bids[j], ins.Bids[i] })
	return ins
}

// certDiff reports the first of Xi, Z and DualObjective on which got
// differs from want, bit for bit, or "" when they agree.
func certDiff(want, got *DualCertificate) string {
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	switch {
	case !same(want.Xi, got.Xi):
		return fmt.Sprintf("Xi %v, want %v", got.Xi, want.Xi)
	case !same(want.DualObjective, got.DualObjective):
		return fmt.Sprintf("DualObjective %v, want %v", got.DualObjective, want.DualObjective)
	case len(want.Z) != len(got.Z):
		return fmt.Sprintf("Z %v, want %v", got.Z, want.Z)
	}
	for bidder, z := range want.Z {
		if gz, ok := got.Z[bidder]; !ok || !same(z, gz) {
			return fmt.Sprintf("Z %v, want %v", got.Z, want.Z)
		}
	}
	return ""
}

// TestCertificateGroupingOracle holds the certificate's bidder grouping —
// Ξ and the Lemma-1 slack z, which the kernel reads from its sorted
// bidder groups — to the map-based oracle refCertFinish, on instances
// with sparse, repeated and shuffled bidder ids and several alternatives
// per bidder. The kernel path runs end to end through ssamScaled, and
// finish also runs directly on the kernel's groups. The slack-carrying
// fitting wins on about one instance in twenty, so the sweep is long
// enough to reach it. The negative control hands finish one group per
// bid, which must be caught on every instance: each bidder's alternatives
// have distinct prices, so Ξ > 1.
func TestCertificateGroupingOracle(t *testing.T) {
	const trials = 200
	rng := rand.New(rand.NewSource(16))
	slack := 0
	for trial := 0; trial < trials; trial++ {
		ins := shuffledBidderInstance(rng, 2+rng.Intn(10), 1+rng.Intn(5), 2+rng.Intn(3))
		scaled := make([]float64, len(ins.Bids))
		factor := 1 + rng.Float64()
		for i, b := range ins.Bids {
			scaled[i] = b.Price * factor
		}
		label := "grouping trial=" + itoa(trial)
		opts := Options{Parallelism: 1}
		assertDifferential(t, ins, scaled, opts, label)

		out, err := referenceSSAMScaled(ins, scaled, opts)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		// Feed a certBuilder the run's iterations, as both SSAM paths do.
		cb := newCertBuilder(ins, scaled)
		cs := newRefCoverageState(ins.Demand)
		for _, w := range out.Winners {
			m := cs.marginal(&ins.Bids[w])
			cb.record(w, &ins.Bids[w], cs.apply(&ins.Bids[w]), scaled[w], m)
		}
		want := refCertFinish(cb, out)
		if len(want.Z) > 0 {
			slack++
		}

		kn := new(kernel)
		kn.groupBidders(ins.Bids)
		if d := certDiff(want, cb.finish(out, kn.groupStart, kn.groupBids)); d != "" {
			t.Fatalf("%s: kernel grouping: %s", label, d)
		}
		perBid := make([]int32, len(ins.Bids)+1)
		for i := range perBid {
			perBid[i] = int32(i)
		}
		if certDiff(want, cb.finish(out, perBid, perBid[:len(ins.Bids)])) == "" {
			t.Fatalf("%s: one group per bid went unnoticed (Xi %v)", label, want.Xi)
		}
	}
	if slack == 0 {
		t.Fatalf("no certificate of %d carried bidder slack; z went untested", trials)
	}
}

func labelFor(trial, opt int, domain string) string {
	return "trial=" + itoa(trial) + " opt=" + itoa(opt) + " domain=" + domain
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// TestDifferentialSSAMInfeasible locks the error path: both implementations
// must reject an uncoverable instance with the same wrapped ErrInfeasible.
func TestDifferentialSSAMInfeasible(t *testing.T) {
	ins := &Instance{
		Demand: []int{3, 2},
		Bids: []Bid{
			{Bidder: 1, Price: 5, Covers: []int{0}, Units: 1},
			{Bidder: 2, Price: 7, Covers: []int{0}, Units: 1},
		},
	}
	scaled := []float64{5, 7}
	assertDifferential(t, ins, scaled, Options{}, "infeasible")
}

// TestDifferentialBudgetedSSAM holds BudgetedSSAM (now kernel-backed) to
// the seed behavior across budgets that never bind, bind mid-run, and
// afford nothing.
func TestDifferentialBudgetedSSAM(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 6; trial++ {
		ins := tieProneInstance(rng, 4+rng.Intn(6), 2+rng.Intn(3), 1+rng.Intn(2))
		full, err := referenceSSAM(ins, Options{})
		if err != nil {
			t.Fatalf("trial %d: reference full run: %v", trial, err)
		}
		total := full.TotalPayment()
		for _, frac := range []float64{0, 0.3, 0.7, 1, 2} {
			budget := total * frac
			for _, opts := range []Options{
				{},
				{Metric: LowestPrice},
				{Payment: FirstPrice},
				{ReserveSet: true, Reserve: 0},
			} {
				want, wantErr := referenceBudgetedSSAM(ins, budget, opts)
				got, gotErr := BudgetedSSAM(ins, budget, opts)
				if (wantErr == nil) != (gotErr == nil) {
					t.Fatalf("trial %d budget %v: error divergence: reference=%v kernel=%v", trial, budget, wantErr, gotErr)
				}
				if wantErr != nil {
					continue
				}
				if !want.Outcome.Equal(&got.Outcome) {
					t.Fatalf("trial %d budget %v: outcome divergence:\nreference: %+v\nkernel:    %+v", trial, budget, want.Outcome, got.Outcome)
				}
				if want.BudgetSpent != got.BudgetSpent || want.UncoveredDemand != got.UncoveredDemand {
					t.Fatalf("trial %d budget %v: accounting divergence: reference spent=%v uncovered=%d, kernel spent=%v uncovered=%d",
						trial, budget, want.BudgetSpent, want.UncoveredDemand, got.BudgetSpent, got.UncoveredDemand)
				}
				if len(want.RejectedByBudget) != len(got.RejectedByBudget) {
					t.Fatalf("trial %d budget %v: rejected divergence: %v vs %v", trial, budget, want.RejectedByBudget, got.RejectedByBudget)
				}
				for i := range want.RejectedByBudget {
					if want.RejectedByBudget[i] != got.RejectedByBudget[i] {
						t.Fatalf("trial %d budget %v: rejected divergence: %v vs %v", trial, budget, want.RejectedByBudget, got.RejectedByBudget)
					}
				}
			}
		}
	}
}

// FuzzSSAMDifferential fuzzes the reference/kernel equivalence over
// generator seeds and packed option bits. The seed corpus (f.Add) runs as
// ordinary bounded test cases on every `go test`, so the equivalence is a
// standing gate even without -fuzz.
func FuzzSSAMDifferential(f *testing.F) {
	f.Add(int64(1), uint8(5), uint8(3), uint8(2), uint8(0))
	f.Add(int64(2), uint8(12), uint8(5), uint8(3), uint8(0xFF))
	f.Add(int64(3), uint8(1), uint8(1), uint8(1), uint8(0x2A))
	f.Add(int64(4), uint8(20), uint8(2), uint8(1), uint8(0x15))
	f.Add(int64(5), uint8(8), uint8(6), uint8(2), uint8(0x63))
	// Saturation-heavy seeds (optBits&128): mass mid-run deaths and exact
	// score collisions, the shapes that stress lazy rescoring hardest.
	f.Add(int64(6), uint8(16), uint8(3), uint8(2), uint8(0x80))
	f.Add(int64(7), uint8(23), uint8(2), uint8(3), uint8(0xA4))
	f.Add(int64(8), uint8(10), uint8(7), uint8(1), uint8(0xD1))
	f.Fuzz(func(t *testing.T, seed int64, bidders, needy, bidsPer, optBits uint8) {
		nb := int(bidders)%24 + 1
		nk := int(needy)%8 + 1
		bp := int(bidsPer)%3 + 1
		rng := rand.New(rand.NewSource(seed))
		var ins *Instance
		switch {
		case optBits&128 != 0:
			ins = saturationHeavyInstance(rng, nb, nk, bp)
		case seed%2 == 0:
			ins = randomInstance(rng, nb, nk, bp)
		default:
			ins = tieProneInstance(rng, nb, nk, bp)
		}
		opts := Options{
			SkipCertificate: optBits&1 != 0,
			ReserveSet:      optBits&2 != 0,
		}
		if optBits&4 != 0 {
			opts.Metric = LowestPrice
		}
		if optBits&8 != 0 {
			opts.Payment = FirstPrice
		}
		if optBits&16 != 0 {
			opts.Reserve = 40
		}
		if optBits&32 != 0 {
			opts.Parallelism = 4
		} else {
			opts.Parallelism = 1
		}
		scaled := make([]float64, len(ins.Bids))
		factor := 1.0
		if optBits&64 != 0 {
			factor = 1 + rng.Float64() // ψ-scaled domain
		}
		for i, b := range ins.Bids {
			scaled[i] = b.Price * factor
		}
		assertDifferential(t, ins, scaled, opts, "fuzz")
	})
}
