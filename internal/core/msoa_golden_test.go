package core

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite golden files from current output")

// msoaTrajectory runs a seeded 40-round online auction under spec and
// renders one line per round: T, the excluded-bid count, then either the
// round error or the winners with their payments and costs, then the
// post-round state hash. Floats are hex so the text is bit-exact. The
// configuration engages every MSOA stage: finite Θ (ψ scaling and
// capacity exclusion), a window that shuts bidder 3 out of the early and
// late rounds, one round with a needy service no bid covers, certificates
// on (α comes from each round's W·Ξ), and parallel payments.
func msoaTrajectory(spec MechanismSpec) string {
	const (
		rounds      = 40
		bidders     = 8
		needy       = 5
		bidsPer     = 2
		uncoverable = 23
	)
	rng := rand.New(rand.NewSource(29))
	m := NewMSOA(MSOAConfig{
		DefaultCapacity:    48,
		CapacityExemptFrom: bidders + 1, // the generators' reserve supplier
		Windows:            map[int]BidderWindow{3: {Arrive: 8, Depart: 27}},
		Mechanism:          spec,
		Options:            Options{Parallelism: 4},
	})
	hex := func(f float64) string { return strconv.FormatFloat(f, 'x', -1, 64) }
	var b strings.Builder
	for r := 1; r <= rounds; r++ {
		var ins *Instance
		if r%2 == 0 {
			ins = tieProneInstance(rng, bidders, needy, bidsPer)
		} else {
			ins = randomInstance(rng, bidders, needy, bidsPer)
		}
		if r == uncoverable {
			ins.Demand = append(ins.Demand, 1)
		}
		res := m.RunRound(Round{T: r, Instance: ins})
		fmt.Fprintf(&b, "T=%d excluded=%d", res.T, len(res.Excluded))
		if res.Err != nil {
			fmt.Fprintf(&b, " err=%q", res.Err.Error())
		} else {
			out := res.Outcome
			fmt.Fprintf(&b, " winners=%v payments=[", out.Winners)
			for i, w := range out.Winners {
				if i > 0 {
					b.WriteByte(' ')
				}
				b.WriteString(hex(out.Payments[w]))
			}
			fmt.Fprintf(&b, "] social=%s scaled=%s", hex(out.SocialCost), hex(out.ScaledCost))
		}
		fmt.Fprintf(&b, " state=%s\n", m.Snapshot().Hash())
	}
	return b.String()
}

// TestMSOATrajectoryGolden pins MSOA's round-by-round output — winners,
// bit-exact payments and costs, exclusions, errors and the ψ/χ state
// hash — for the zero mechanism spec, and requires the explicit "ssam"
// spec to reproduce it byte for byte. The golden file is a byte-identity
// gate for refactors of the dispatch path: a diff means the refactor
// changed an output bit.
func TestMSOATrajectoryGolden(t *testing.T) {
	got := msoaTrajectory(MechanismSpec{})
	if named := msoaTrajectory(MechanismSpec{Name: NameSSAM}); named != got {
		t.Fatalf("explicit ssam spec diverged from the zero spec:\nzero:\n%s\nssam:\n%s", got, named)
	}
	goldenPath := filepath.Join("testdata", "msoa_trajectory.golden")
	if *updateGolden {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("golden trajectory mismatch:\n got:\n%s\nwant:\n%s", got, want)
	}
}
