package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// validateReference is the straightforward map-based Validate the
// map-free one replaced, kept as its oracle: one map of (Bidder, Alt)
// keys for the instance and one map of covers per bid.
func validateReference(ins *Instance) error {
	for k, d := range ins.Demand {
		if d < 0 {
			return fmt.Errorf("core: demand of needy microservice %d is negative (%d)", k, d)
		}
	}
	type altKey struct{ bidder, alt int }
	seenAlt := make(map[altKey]struct{}, len(ins.Bids))
	for idx, b := range ins.Bids {
		if b.Price < 0 || math.IsNaN(b.Price) || math.IsInf(b.Price, 0) {
			return fmt.Errorf("core: bid %d has invalid price %v", idx, b.Price)
		}
		if b.Units < 1 {
			return fmt.Errorf("core: bid %d has non-positive units %d", idx, b.Units)
		}
		if len(b.Covers) == 0 {
			return fmt.Errorf("core: bid %d covers no needy microservice", idx)
		}
		seen := make(map[int]struct{}, len(b.Covers))
		for _, k := range b.Covers {
			if k < 0 || k >= len(ins.Demand) {
				return fmt.Errorf("core: bid %d covers out-of-range needy microservice %d", idx, k)
			}
			if _, dup := seen[k]; dup {
				return fmt.Errorf("core: bid %d covers needy microservice %d twice", idx, k)
			}
			seen[k] = struct{}{}
		}
		key := altKey{b.Bidder, b.Alt}
		if _, dup := seenAlt[key]; dup {
			return fmt.Errorf("core: bidder %d submits duplicate alternative index %d", b.Bidder, b.Alt)
		}
		seenAlt[key] = struct{}{}
	}
	return nil
}

// canonicalValidInstance draws a valid instance in canonical (Bidder, Alt)
// order: bidders 1..bidders with up to alts alternatives each (some
// bidders skip alternatives), covers unique over needy services. When
// wide is set, some bids cover more than pairwiseCovers services.
func canonicalValidInstance(rng *rand.Rand, bidders, alts, needy int, wide bool) *Instance {
	ins := &Instance{Demand: make([]int, needy)}
	for k := range ins.Demand {
		ins.Demand[k] = rng.Intn(4)
	}
	for b := 1; b <= bidders; b++ {
		for a := 0; a < alts; a++ {
			if a > 0 && rng.Intn(3) == 0 {
				continue
			}
			n := 1 + rng.Intn(min(needy, 4))
			if wide && rng.Intn(3) == 0 {
				n = min(needy, pairwiseCovers+1+rng.Intn(8))
			}
			price := float64(rng.Intn(5000)) / 100
			ins.Bids = append(ins.Bids, Bid{
				Bidder: 3*b + rng.Intn(2), Alt: a, Price: price, TrueCost: price,
				Covers: rng.Perm(needy)[:n], Units: 1 + rng.Intn(3),
			})
		}
	}
	return ins
}

// corruptInstance applies one randomly chosen defect to ins at a position
// drawn from the first, a middle or the last bid.
func corruptInstance(rng *rand.Rand, ins *Instance) string {
	if len(ins.Bids) == 0 {
		return "none"
	}
	pos := []int{0, len(ins.Bids) / 2, len(ins.Bids) - 1}[rng.Intn(3)]
	b := &ins.Bids[pos]
	switch c := rng.Intn(12); c {
	case 0: // duplicate alt: copy another bid's key
		src := ins.Bids[rng.Intn(len(ins.Bids))]
		b.Bidder, b.Alt = src.Bidder, src.Alt
		return "duplicate alt"
	case 1: // duplicate alt of the neighbour (adjacent in canonical order)
		if pos > 0 {
			b.Bidder, b.Alt = ins.Bids[pos-1].Bidder, ins.Bids[pos-1].Alt
		} else if len(ins.Bids) > 1 {
			ins.Bids[1].Bidder, ins.Bids[1].Alt = b.Bidder, b.Alt
		}
		return "adjacent duplicate alt"
	case 2: // duplicate cover
		if len(b.Covers) == 0 {
			return "none"
		}
		b.Covers = append(append([]int(nil), b.Covers...), b.Covers[rng.Intn(len(b.Covers))])
		rng.Shuffle(len(b.Covers), func(i, j int) { b.Covers[i], b.Covers[j] = b.Covers[j], b.Covers[i] })
		return "duplicate cover"
	case 3: // out-of-range cover, high or negative
		bad := []int{len(ins.Demand), len(ins.Demand) + 7, -1}[rng.Intn(3)]
		b.Covers = append(append([]int(nil), b.Covers...), bad)
		rng.Shuffle(len(b.Covers), func(i, j int) { b.Covers[i], b.Covers[j] = b.Covers[j], b.Covers[i] })
		return "out-of-range cover"
	case 4:
		b.Price = math.NaN()
		return "nan price"
	case 5:
		b.Price = math.Inf(1 - 2*rng.Intn(2))
		return "infinite price"
	case 6:
		b.Price = -0.5
		return "negative price"
	case 7:
		b.Units = -rng.Intn(2)
		return "non-positive units"
	case 8:
		b.Covers = nil
		return "empty covers"
	case 9:
		if len(ins.Demand) > 0 {
			ins.Demand[rng.Intn(len(ins.Demand))] = -1 - rng.Intn(3)
		}
		return "negative demand"
	case 10: // a bid moved out of order, keys still distinct
		j := rng.Intn(len(ins.Bids))
		ins.Bids[pos], ins.Bids[j] = ins.Bids[j], ins.Bids[pos]
		return "swapped bids"
	default:
		return "none"
	}
}

// TestValidateMatchesReference holds the map-free Validate to the
// map-based oracle: the same error string, or nil for both, on canonical
// and shuffled instances with zero, one or several defects — duplicate
// alts at the first, middle and last position, duplicate and
// out-of-range covers (also among more than pairwiseCovers covers),
// non-finite and negative prices, zero units, empty covers and negative
// demand. It also pins the allocation claim: a canonical 10k-bid
// instance validates without allocating.
func TestValidateMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for trial := 0; trial < 3000; trial++ {
		needy := 1 + rng.Intn(6)
		wide := trial%4 == 3
		if wide {
			needy = pairwiseCovers + 1 + rng.Intn(20)
		}
		ins := canonicalValidInstance(rng, 1+rng.Intn(12), 1+rng.Intn(3), needy, wide)
		var defects []string
		for d := rng.Intn(3); d > 0; d-- {
			defects = append(defects, corruptInstance(rng, ins))
		}
		if trial%3 == 1 {
			rng.Shuffle(len(ins.Bids), func(i, j int) { ins.Bids[i], ins.Bids[j] = ins.Bids[j], ins.Bids[i] })
			defects = append(defects, "shuffled")
		}
		got, want := ins.Validate(), validateReference(ins)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("trial %d (%v): Validate = %v, reference = %v", trial, defects, got, want)
		}
	}

	// A canonical fleet-shaped instance: 10k bidders, 1-2 covers each.
	big := &Instance{Demand: []int{2, 1, 2, 1}}
	for id := 1; id <= 10000; id++ {
		big.Bids = append(big.Bids, Bid{Bidder: id, Price: 1, Covers: rng.Perm(4)[:1+rng.Intn(2)], Units: 1})
	}
	if err := big.Validate(); err != nil {
		t.Fatalf("canonical instance: %v", err)
	}
	if allocs := testing.AllocsPerRun(20, func() { _ = big.Validate() }); allocs != 0 {
		t.Fatalf("Validate allocates %.1f times on a canonical 10k-bid instance, want 0", allocs)
	}
}
