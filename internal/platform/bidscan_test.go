package platform

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// checkFastPath decodes line with scanBid into env, reset first as the
// ingest loop resets it, and with encoding/json into a fresh envelope. It
// fails unless scanBid took the line without falling back and the two
// decodes agree.
func checkFastPath(env *Envelope, line []byte) error {
	env.resetForReuse()
	if !scanBid(line, env) {
		return fmt.Errorf("scanBid fell back on %.200q", line)
	}
	var fresh Envelope
	if err := json.Unmarshal(line, &fresh); err != nil {
		return fmt.Errorf("scanBid took %.200q, which encoding/json refuses: %v", line, err)
	}
	if !sameEnvelope(env, &fresh) {
		return fmt.Errorf("scanBid and encoding/json decode %.200q differently", line)
	}
	return nil
}

// TestScanBidTakesMarshalledBids is the bid fast path's coverage test and
// the negative control for FuzzRecvInto, which a scanner that always fell
// back would pass: every bid line json.Marshal writes, in the plain and
// the multiplexed form, must be taken by scanBid with no fallback and
// decode as encoding/json decodes it. The lines are random submissions
// (ints within ±1e18, prices across the magnitudes json.Marshal writes in
// exponent form) and perfbench-shaped session frames; sender_test.go adds
// the lines the agent and loadgen senders write.
func TestScanBidTakesMarshalledBids(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var env Envelope
	for i := 0; i < 400; i++ {
		msg := randomSubmit(rng, i%2 == 1)
		line, err := json.Marshal(&Envelope{Type: TypeBid, Bid: msg})
		if err != nil {
			t.Fatal(err)
		}
		if err := checkFastPath(&env, append(line, '\n')); err != nil {
			t.Fatal(err)
		}
	}
	for _, fs := range frameShapes {
		if err := checkFastPath(&env, fs.frame()); err != nil {
			t.Fatalf("%s: %v", fs.name, err)
		}
	}
}

// randomSubmit draws a bid submission in the plain (Bids) or the
// multiplexed (Multi) form. Slices are never nil: json.Marshal writes a
// nil slice as null, which is outside the fast path's subset.
func randomSubmit(rng *rand.Rand, multi bool) *BidSubmitMsg {
	msg := &BidSubmitMsg{T: randomInt(rng)}
	if !multi {
		msg.Bids = randomBids(rng)
		return msg
	}
	msg.Multi = make([]AgentBids, 1+rng.Intn(3))
	for i := range msg.Multi {
		msg.Multi[i] = AgentBids{Agent: randomInt(rng), Bids: randomBids(rng)}
	}
	return msg
}

func randomBids(rng *rand.Rand) []WireBid {
	bids := make([]WireBid, rng.Intn(4))
	for i := range bids {
		bids[i] = WireBid{Alt: randomInt(rng), Price: randomPrice(rng), Covers: make([]int, rng.Intn(4)), Units: randomInt(rng)}
		for j := range bids[i].Covers {
			bids[i].Covers[j] = randomInt(rng)
		}
	}
	return bids
}

// randomInt is small half the time and anywhere within ±1e18 otherwise.
func randomInt(rng *rand.Rand) int {
	if rng.Intn(2) == 0 {
		return rng.Intn(201) - 100
	}
	return int(rng.Int63n(2e18+1) - 1e18)
}

// randomPrice spans 1e-12 to 1e30 in magnitude, so json.Marshal writes
// some prices in exponent form (below 1e-6 and from 1e21 up), and
// includes both zeros.
func randomPrice(rng *rand.Rand) float64 {
	switch rng.Intn(8) {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	}
	p := rng.Float64() * math.Pow(10, float64(rng.Intn(43)-12))
	if rng.Intn(2) == 0 {
		p = -p
	}
	return p
}

// frameShape is one perfbench workload's session frame: agents × alts
// bids, each covering minCovers..maxCovers of needy services, priced in
// cents roughly in proportion to its cover count.
type frameShape struct {
	name                 string
	agents, alts, needy  int
	minCovers, maxCovers int
}

var frameShapes = []frameShape{
	{name: "fleet-10k", agents: 5000, alts: 1, needy: 4, minCovers: 1, maxCovers: 2},
	{name: "market-dense", agents: 500, alts: 8, needy: 64, minCovers: 3, maxCovers: 6},
}

// frame returns the session's bid line, as perfbench's fleet writes it:
// one multiplexed submission, newline-terminated.
func (fs frameShape) frame() []byte {
	rng := rand.New(rand.NewSource(1))
	msg := &BidSubmitMsg{T: 9, Multi: make([]AgentBids, fs.agents)}
	for a := range msg.Multi {
		ab := AgentBids{Agent: a + 1}
		for alt := 0; alt < fs.alts; alt++ {
			covers := rng.Perm(fs.needy)[:fs.minCovers+rng.Intn(fs.maxCovers-fs.minCovers+1)]
			price := math.Round((1+9*rng.Float64())*float64(len(covers))*100) / 100
			ab.Bids = append(ab.Bids, WireBid{Alt: alt, Price: price, Covers: covers, Units: 1})
		}
		msg.Multi[a] = ab
	}
	line, err := json.Marshal(&Envelope{Type: TypeBid, Bid: msg})
	if err != nil {
		panic(err)
	}
	return append(line, '\n')
}

// BenchmarkDecodeBidFrame times one session's bid frame through scanBid
// and through encoding/json, each into one envelope reused the way the
// ingest loop reuses it: resetForReuse before every decode.
func BenchmarkDecodeBidFrame(b *testing.B) {
	for _, fs := range frameShapes {
		line := fs.frame()
		decoders := []struct {
			name   string
			decode func(*Envelope) error
		}{
			{"scan", func(env *Envelope) error {
				if !scanBid(line, env) {
					return errors.New("scanBid fell back")
				}
				return nil
			}},
			{"json", func(env *Envelope) error { return json.Unmarshal(line, env) }},
		}
		for _, d := range decoders {
			b.Run(fs.name+"/"+d.name, func(b *testing.B) {
				var env Envelope
				if err := d.decode(&env); err != nil {
					b.Fatal(err)
				}
				b.SetBytes(int64(len(line)))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					env.resetForReuse()
					if err := d.decode(&env); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
