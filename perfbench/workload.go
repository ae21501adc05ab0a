package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strconv"

	"edgeauction/internal/core"
	"edgeauction/internal/platform"
)

// workload is one traffic mix: the fleet shape, the per-round demand the
// SUT round loop announces, and the server options that differ between mixes.
// Bids are a pure function of (workload, seed) and stay fixed across
// rounds, so every round announces the same demand to the same bids and
// only the mechanism's cross-round ψ/χ state evolves.
type workload struct {
	name   string
	agents int
	// alts is the number of alternative bids per agent.
	alts int
	// needy is the number of needy microservices; demand[k] their
	// per-round residual demand (len(demand) == needy).
	demand []int
	// minCovers..maxCovers bounds each bid's cover-set size.
	minCovers, maxCovers int
	// capacity[s] is Θ for every agent registered on session s (0 means
	// unlimited); a workload with one entry uses it for every session.
	capacity []int
	// wal turns on ServerConfig.WAL (fsync off).
	wal bool
	// warmup is the number of rounds run before timing starts.
	warmup int
}

var workloads = map[string]workload{
	// Wide and shallow: the round is mostly decode and ingest of 10k bids.
	"fleet-10k": {
		name: "fleet-10k", agents: 10000, alts: 1,
		demand: []int{2, 1, 2, 1}, minCovers: 1, maxCovers: 2,
		capacity: []int{0}, warmup: 20,
	},
	// Narrow and deep: about 100 winners per round over 64 needy
	// services, so greedy selection and payment replays dominate. The
	// first session's agents have a small Θ (their 5-6-cover bids are
	// excluded from round 1 and one win exhausts them), the second's a
	// large one (ψ scaling on every win, never exhausted within a run).
	"market-dense": {
		name: "market-dense", agents: 1000, alts: 8,
		demand: uniformDemand(64, 7), minCovers: 3, maxCovers: 6,
		capacity: []int{4, 100000}, warmup: 40,
	},
	// fleet-10k's traffic with the write-ahead log on.
	"durable-10k": {
		name: "durable-10k", agents: 10000, alts: 1,
		demand: []int{2, 1, 2, 1}, minCovers: 1, maxCovers: 2,
		capacity: []int{0}, wal: true, warmup: 20,
	},
}

func uniformDemand(n, d int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = d
	}
	return out
}

func lookupWorkload(name string) (workload, error) {
	w, ok := workloads[name]
	if !ok {
		return workload{}, fmt.Errorf("unknown workload %q", name)
	}
	return w, nil
}

// sessionCount is how many multiplexed TCP sessions the fleet opens: two,
// or one on a single-CPU host, so the fleet never holds more sockets than
// there are processors.
func sessionCount() int {
	if runtime.NumCPU() < 2 {
		return 1
	}
	return 2
}

// fleetSession is one multiplexed session's agent range and its
// pre-encoded bid batch, split around the round tag.
type fleetSession struct {
	first, count int
	capacity     int
	head, tail   []byte
}

// frame returns the session's bid batch for round t: the pre-encoded
// bytes with only the round tag spliced in.
func (fs *fleetSession) frame(dst []byte, t int) []byte {
	dst = append(dst[:0], fs.head...)
	dst = strconv.AppendInt(dst, int64(t), 10)
	return append(dst, fs.tail...)
}

// traffic is everything a seed determines: the bids, grouped per session
// and pre-encoded, plus the canonical instance the server must gather.
type traffic struct {
	sessions []fleetSession
	// bids is every bid in canonical (Bidder, Alt) order; ins wraps them
	// with the workload's demand.
	bids []core.Bid
	ins  *core.Instance
	// capacity maps bidder id -> Θ as the fleet registers it.
	capacity map[int]int
	// needyIDs names the needy services in announces.
	needyIDs []int
}

// genTraffic builds the seeded traffic for w. The same (w, seed) always
// yields byte-identical frames.
func genTraffic(w workload, seed int64, sessions int) (*traffic, error) {
	rng := rand.New(rand.NewSource(seed))
	needy := len(w.demand)
	tr := &traffic{capacity: make(map[int]int, w.agents)}
	for k := 0; k < needy; k++ {
		tr.needyIDs = append(tr.needyIDs, 1000+k)
	}
	perm := make([]int, needy)
	multi := make([]platform.AgentBids, 0, w.agents)
	for id := 1; id <= w.agents; id++ {
		ab := platform.AgentBids{Agent: id}
		for alt := 0; alt < w.alts; alt++ {
			n := w.minCovers + rng.Intn(w.maxCovers-w.minCovers+1)
			for i := range perm {
				perm[i] = i
			}
			covers := make([]int, n)
			for i := 0; i < n; i++ {
				j := i + rng.Intn(needy-i)
				perm[i], perm[j] = perm[j], perm[i]
				covers[i] = perm[i]
			}
			// Prices in cents, roughly proportional to the coverage sold.
			price := math.Round((1+9*rng.Float64())*float64(n)*100) / 100
			ab.Bids = append(ab.Bids, platform.WireBid{Alt: alt, Price: price, Covers: covers, Units: 1})
			tr.bids = append(tr.bids, core.Bid{
				Bidder: id, Alt: alt, Price: price, TrueCost: price, Covers: covers, Units: 1,
			})
		}
		multi = append(multi, ab)
	}
	per := (w.agents + sessions - 1) / sessions
	for s := 0; s < sessions; s++ {
		lo := s * per
		hi := lo + per
		if hi > w.agents {
			hi = w.agents
		}
		fs := fleetSession{first: lo + 1, count: hi - lo, capacity: w.capacity[s%len(w.capacity)]}
		body, err := json.Marshal(&platform.BidSubmitMsg{T: 0, Multi: multi[lo:hi]})
		if err != nil {
			return nil, fmt.Errorf("encode session %d batch: %w", s, err)
		}
		const tPrefix = `{"t":0`
		if string(body[:len(tPrefix)]) != tPrefix {
			return nil, fmt.Errorf("unexpected batch layout %q", body[:len(tPrefix)])
		}
		fs.head = []byte(`{"type":"bid","bid":{"t":`)
		fs.tail = append(append(body[len(tPrefix):], '}'), '\n')
		for id := fs.first; id < fs.first+fs.count; id++ {
			tr.capacity[id] = fs.capacity
		}
		tr.sessions = append(tr.sessions, fs)
	}
	tr.ins = &core.Instance{Demand: w.demand, Bids: tr.bids}
	if err := tr.ins.Validate(); err != nil {
		return nil, fmt.Errorf("generated instance: %w", err)
	}
	return tr, nil
}
