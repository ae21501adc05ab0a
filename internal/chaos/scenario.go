// Package chaos is a deterministic scenario engine and online invariant
// auditor for the auction platform. It drives the real platform.Server
// and core.MSOA over hundreds of rounds of scripted and seed-randomized
// churn — agents joining, leaving, crashing mid-bid with TCP resets,
// writing too slowly to hear a round, submitting bids after the deadline,
// demand spikes, capacity exhaustion, interleaved federation rounds — and
// after every round machine-checks the paper's mechanism properties
// against an independent shadow replay of the trace stream.
//
// Scenarios are declared in a small builder DSL or as JSON files (see
// testdata/scenarios) and replay byte-identically from a seed: every
// random draw comes from a workload.DeriveSeed sub-stream keyed by
// (round, agent), so the audit log two runs produce is comparable with
// cmp(1). The cmd/chaos binary and the soak Makefile targets build on
// exactly that property.
package chaos

import (
	"encoding/json"
	"fmt"
	"os"

	"edgeauction/internal/core"
	"edgeauction/internal/platform"
	"edgeauction/internal/sim"
	"edgeauction/internal/workload"
)

// Scenario actions, used both in scripted events and as the outcome of
// per-round churn draws.
const (
	// ActBid is the default: the agent submits its generated bids.
	ActBid = "bid"
	// ActCrash makes the agent reset its TCP connection (RST) instead of
	// bidding — a crash mid-round. The agent rejoins after
	// Churn.RejoinAfter rounds if that is positive.
	ActCrash = "crash"
	// ActDelay withholds the agent's bids past the round deadline; they
	// arrive at the start of the NEXT round carrying the old round tag,
	// which the platform must discard without losing the live bid.
	ActDelay = "delay"
	// ActSlow marks the agent's connection as unwritable for the round's
	// announce: the platform drops it as a slow writer (write-timeout)
	// and it rejoins like a crashed agent.
	ActSlow = "slow"
	// ActAbstain answers the round with an empty bid list.
	ActAbstain = "abstain"
	// ActReset is a scripted between-rounds connection reset.
	ActReset = "reset"
	// ActLeave is a scripted graceful departure (no rejoin).
	ActLeave = "leave"
	// ActJoin is a scripted (re)join of a departed or not-yet-joined
	// agent.
	ActJoin = "join"
	// ActSpike multiplies the round's demand by the event's Factor
	// (default Demand.SpikeFactor).
	ActSpike = "spike"
)

// AgentSpec declares one agent of a scenario.
type AgentSpec struct {
	// ID is the agent's positive bidder id.
	ID int `json:"id"`
	// Capacity is the lifetime coverage capacity Θ_i; 0 means unlimited
	// (and the agent then never generates ψ updates).
	Capacity int `json:"capacity"`
	// Join is the round before which the agent dials in; 0 or 1 means
	// present from the start.
	Join int `json:"join,omitempty"`
	// Leave, when positive, departs the agent gracefully before this
	// round.
	Leave int `json:"leave,omitempty"`
	// BidsPer is the number of alternative bids per round (default 1).
	BidsPer int `json:"bids_per,omitempty"`
	// PriceLo/PriceHi bound the uniform per-slot price draw (defaults
	// 10/35, the paper's §V-A range).
	PriceLo float64 `json:"price_lo,omitempty"`
	PriceHi float64 `json:"price_hi,omitempty"`
}

// DemandSpec declares the per-round demand process.
type DemandSpec struct {
	// NeedyLo/NeedyHi bound the number of needy microservices per round
	// (defaults 2/4).
	NeedyLo int `json:"needy_lo,omitempty"`
	NeedyHi int `json:"needy_hi,omitempty"`
	// DemandLo/DemandHi bound each needy microservice's residual demand
	// (defaults 1/3).
	DemandLo int `json:"demand_lo,omitempty"`
	DemandHi int `json:"demand_hi,omitempty"`
	// SpikeEvery, when positive, multiplies demand by SpikeFactor every
	// SpikeEvery-th round (capacity-exhaustion pressure).
	SpikeEvery int `json:"spike_every,omitempty"`
	// SpikeFactor is the spike multiplier (default 3).
	SpikeFactor float64 `json:"spike_factor,omitempty"`
}

// ChurnSpec declares seed-randomized per-round agent faults. Each live
// agent draws once per round; the probabilities partition [0,1) with the
// remainder meaning a normal bid.
type ChurnSpec struct {
	CrashProb   float64 `json:"crash_prob,omitempty"`
	DelayProb   float64 `json:"delay_prob,omitempty"`
	SlowProb    float64 `json:"slow_prob,omitempty"`
	AbstainProb float64 `json:"abstain_prob,omitempty"`
	// RejoinAfter is how many rounds a crashed/slow-dropped agent stays
	// away before re-dialing; 0 means it never returns.
	RejoinAfter int `json:"rejoin_after,omitempty"`
}

// EventSpec scripts one deterministic event.
type EventSpec struct {
	// Round the event applies to (1-based).
	Round int `json:"round"`
	// Agent the event targets (ignored for spike).
	Agent int `json:"agent,omitempty"`
	// Action is one of the Act* constants.
	Action string `json:"action"`
	// Factor parameterizes spike events.
	Factor float64 `json:"factor,omitempty"`
}

// FederationSpec interleaves multi-cloud federated rounds with the
// platform rounds.
type FederationSpec struct {
	// Every runs one federated round after every Every-th platform round.
	Every int `json:"every"`
	// Clouds is the federation size (default 3).
	Clouds int `json:"clouds,omitempty"`
}

// Scenario is a complete declarative chaos run.
type Scenario struct {
	Name   string `json:"name"`
	Seed   int64  `json:"seed"`
	Rounds int    `json:"rounds"`
	// BidDeadlineMS is the platform's per-round bid deadline in
	// milliseconds (default 40; fault rounds pay it in full, so it bounds
	// the soak's wall clock). Comparison runs (RunCompare) ignore it:
	// their agents always bid, so their rounds close on the last bid.
	BidDeadlineMS int             `json:"bid_deadline_ms,omitempty"`
	Agents        []AgentSpec     `json:"agents"`
	Demand        DemandSpec      `json:"demand"`
	Churn         ChurnSpec       `json:"churn"`
	Events        []EventSpec     `json:"events,omitempty"`
	Federation    *FederationSpec `json:"federation,omitempty"`
	// PlatformCrashes scripts kill/restart points for the PLATFORM
	// process itself (not an agent). A scenario carrying any entry runs
	// under the comparison harness (RunCompare) instead of the churn
	// engine, with the crashed variant: the platform is killed at each
	// scripted point, recovered from snapshot + WAL-suffix replay, and the
	// run's final state is compared byte-for-byte against an
	// uninterrupted pass.
	PlatformCrashes []CrashSpec `json:"platform_crashes,omitempty"`
	// Pipelined, unless PlatformCrashes is set, routes the scenario to the
	// comparison harness (RunCompare) with the pipelined variant instead
	// of the churn engine: the same fixed workload runs once through the
	// serial round loop and once through the overlapped round engine
	// (platform.RunPipelined), and the two passes' WAL bytes, final state
	// hash and summary must agree — the overlap is an implementation
	// detail the durable record cannot see.
	Pipelined bool `json:"pipelined,omitempty"`
	// Mechanism selects the single-stage mechanism the platform (and the
	// auditor's shadow replay) clears rounds through. Nil means SSAM and
	// keeps the audit log byte-identical to scenarios predating the
	// field. Non-SSAM mechanisms drop the SSAM-only invariants
	// (critical-value spot checks, certificates, ψ trajectories) and, for
	// the double auction, add the per-round penalty-bound invariant.
	Mechanism *core.MechanismSpec `json:"mechanism,omitempty"`
	// Workload, when set, derives the per-round demand from the
	// topology-driven workload engine instead of DemandSpec's i.i.d.
	// draw: Validate simulates the service graph for the scenario's
	// rounds and converts each round's indicators through the §III
	// estimator bridge into residual demand. The schedule is a pure
	// function of (Seed, Workload), precomputed before the platform
	// starts, so crash-restarted rounds replay bit-identical demand.
	Workload *WorkloadSpec `json:"workload,omitempty"`

	// wlDemand is the precomputed per-round demand schedule (built by
	// Validate when Workload is set). Index t-1 holds round t.
	wlDemand [][]int
}

// WorkloadSpec drives a scenario's demand from a simulated service
// topology.
type WorkloadSpec struct {
	// Topology names a builtin service graph ("three-tier", "overload",
	// "spikes", "frontier") or a YAML topology file path.
	Topology string `json:"topology"`
	// WorkScale multiplies every service's per-request work; 0 means 1.
	// Values above 1 overload the graph, producing sustained demand.
	WorkScale float64 `json:"work_scale,omitempty"`
	// MaxDemand caps each needy microservice's per-round residual
	// demand; 0 means 6, matching DemandSpec's scale so the platform
	// agents' bid sizing still covers rounds.
	MaxDemand int `json:"max_demand,omitempty"`
}

// MechanismSpec resolves the scenario's mechanism selection, mapping a
// nil field to the zero (SSAM) spec.
func (s *Scenario) MechanismSpec() core.MechanismSpec {
	if s.Mechanism == nil {
		return core.MechanismSpec{}
	}
	return *s.Mechanism
}

// CrashSpec scripts one platform kill.
type CrashSpec struct {
	// Round the platform dies in (1-based).
	Round int `json:"round"`
	// Point is where inside the round the process dies:
	// platform.CrashMidGather, CrashPreAnnounce, or CrashPostAnnounce.
	Point string `json:"point"`
}

// New starts a scenario with the given name and defaults (seed 1,
// 100 rounds).
func New(name string) *Scenario {
	return &Scenario{Name: name, Seed: 1, Rounds: 100}
}

// WithSeed sets the root seed.
func (s *Scenario) WithSeed(seed int64) *Scenario { s.Seed = seed; return s }

// WithRounds sets the number of platform rounds.
func (s *Scenario) WithRounds(n int) *Scenario { s.Rounds = n; return s }

// WithDeadline sets the bid deadline in milliseconds.
func (s *Scenario) WithDeadline(ms int) *Scenario { s.BidDeadlineMS = ms; return s }

// WithAgents appends n agents with ids starting after the current
// highest, all sharing the given capacity.
func (s *Scenario) WithAgents(n, capacity int) *Scenario {
	next := 1
	for _, a := range s.Agents {
		if a.ID >= next {
			next = a.ID + 1
		}
	}
	for i := 0; i < n; i++ {
		s.Agents = append(s.Agents, AgentSpec{ID: next + i, Capacity: capacity})
	}
	return s
}

// WithAgent appends one fully specified agent.
func (s *Scenario) WithAgent(a AgentSpec) *Scenario { s.Agents = append(s.Agents, a); return s }

// WithPipelined routes the scenario to the comparison harness's
// pipelined variant (serial baseline vs platform.RunPipelined).
func (s *Scenario) WithPipelined() *Scenario { s.Pipelined = true; return s }

// WithDemand sets the demand process.
func (s *Scenario) WithDemand(d DemandSpec) *Scenario { s.Demand = d; return s }

// WithChurn sets the randomized churn probabilities.
func (s *Scenario) WithChurn(c ChurnSpec) *Scenario { s.Churn = c; return s }

// On scripts an event.
func (s *Scenario) On(round, agent int, action string) *Scenario {
	s.Events = append(s.Events, EventSpec{Round: round, Agent: agent, Action: action})
	return s
}

// SpikeAt scripts a demand spike.
func (s *Scenario) SpikeAt(round int, factor float64) *Scenario {
	s.Events = append(s.Events, EventSpec{Round: round, Action: ActSpike, Factor: factor})
	return s
}

// CrashPlatformAt scripts a platform kill at a round and crash point
// (platform.CrashMidGather/CrashPreAnnounce/CrashPostAnnounce).
func (s *Scenario) CrashPlatformAt(round int, point string) *Scenario {
	s.PlatformCrashes = append(s.PlatformCrashes, CrashSpec{Round: round, Point: point})
	return s
}

// WithMechanism selects the single-stage mechanism the platform clears
// rounds through.
func (s *Scenario) WithMechanism(spec core.MechanismSpec) *Scenario {
	s.Mechanism = &spec
	return s
}

// WithWorkload derives the scenario's demand from a simulated service
// topology (see WorkloadSpec).
func (s *Scenario) WithWorkload(w WorkloadSpec) *Scenario {
	s.Workload = &w
	return s
}

// WithFederation interleaves a federated round every `every` rounds.
func (s *Scenario) WithFederation(every, clouds int) *Scenario {
	s.Federation = &FederationSpec{Every: every, Clouds: clouds}
	return s
}

// deadline/demand/agent defaults, applied at Validate time.
func (s *Scenario) applyDefaults() {
	if s.BidDeadlineMS == 0 {
		s.BidDeadlineMS = 40
	}
	if s.Demand.NeedyLo == 0 {
		s.Demand.NeedyLo = 2
	}
	if s.Demand.NeedyHi == 0 {
		s.Demand.NeedyHi = 4
	}
	if s.Demand.DemandLo == 0 {
		s.Demand.DemandLo = 1
	}
	if s.Demand.DemandHi == 0 {
		s.Demand.DemandHi = 3
	}
	if s.Demand.SpikeFactor == 0 {
		s.Demand.SpikeFactor = 3
	}
	for i := range s.Agents {
		a := &s.Agents[i]
		if a.BidsPer == 0 {
			a.BidsPer = 1
		}
		if a.PriceLo == 0 {
			a.PriceLo = 10
		}
		if a.PriceHi == 0 {
			a.PriceHi = 35
		}
	}
	if s.Federation != nil && s.Federation.Clouds == 0 {
		s.Federation.Clouds = 3
	}
}

// Validate applies defaults and rejects inconsistent scenarios.
func (s *Scenario) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("chaos: scenario has no name")
	}
	if s.Rounds <= 0 {
		return fmt.Errorf("chaos: scenario %q has %d rounds", s.Name, s.Rounds)
	}
	if len(s.Agents) == 0 {
		return fmt.Errorf("chaos: scenario %q has no agents", s.Name)
	}
	s.applyDefaults()
	seen := map[int]bool{}
	for _, a := range s.Agents {
		if a.ID <= 0 {
			return fmt.Errorf("chaos: scenario %q: agent id %d must be positive", s.Name, a.ID)
		}
		if seen[a.ID] {
			return fmt.Errorf("chaos: scenario %q: duplicate agent id %d", s.Name, a.ID)
		}
		seen[a.ID] = true
		if a.Capacity < 0 {
			return fmt.Errorf("chaos: scenario %q: agent %d has negative capacity", s.Name, a.ID)
		}
		if a.PriceHi < a.PriceLo {
			return fmt.Errorf("chaos: scenario %q: agent %d price range [%v,%v] inverted", s.Name, a.ID, a.PriceLo, a.PriceHi)
		}
		if a.Leave > 0 && a.Leave <= a.Join {
			return fmt.Errorf("chaos: scenario %q: agent %d leaves (%d) before joining (%d)", s.Name, a.ID, a.Leave, a.Join)
		}
	}
	c := s.Churn
	if c.CrashProb < 0 || c.DelayProb < 0 || c.SlowProb < 0 || c.AbstainProb < 0 {
		return fmt.Errorf("chaos: scenario %q: negative churn probability", s.Name)
	}
	if total := c.CrashProb + c.DelayProb + c.SlowProb + c.AbstainProb; total > 1 {
		return fmt.Errorf("chaos: scenario %q: churn probabilities sum to %v > 1", s.Name, total)
	}
	if s.Demand.NeedyHi < s.Demand.NeedyLo || s.Demand.DemandHi < s.Demand.DemandLo {
		return fmt.Errorf("chaos: scenario %q: inverted demand range", s.Name)
	}
	for _, e := range s.Events {
		if e.Round <= 0 || e.Round > s.Rounds {
			return fmt.Errorf("chaos: scenario %q: event round %d outside [1,%d]", s.Name, e.Round, s.Rounds)
		}
		switch e.Action {
		case ActCrash, ActDelay, ActSlow, ActAbstain, ActReset, ActLeave, ActJoin, ActBid:
			if !seen[e.Agent] {
				return fmt.Errorf("chaos: scenario %q: event targets unknown agent %d", s.Name, e.Agent)
			}
		case ActSpike:
		default:
			return fmt.Errorf("chaos: scenario %q: unknown action %q", s.Name, e.Action)
		}
	}
	if s.Federation != nil && s.Federation.Every <= 0 {
		return fmt.Errorf("chaos: scenario %q: federation interval %d must be positive", s.Name, s.Federation.Every)
	}
	if s.Mechanism != nil {
		if _, err := core.NewMechanism(*s.Mechanism); err != nil {
			return fmt.Errorf("chaos: scenario %q: %w", s.Name, err)
		}
	}
	for _, c := range s.PlatformCrashes {
		if c.Round <= 0 || c.Round > s.Rounds {
			return fmt.Errorf("chaos: scenario %q: platform crash round %d outside [1,%d]", s.Name, c.Round, s.Rounds)
		}
		switch c.Point {
		case platform.CrashMidGather, platform.CrashPreAnnounce, platform.CrashPostAnnounce:
		default:
			return fmt.Errorf("chaos: scenario %q: unknown platform crash point %q", s.Name, c.Point)
		}
	}
	if s.Workload != nil {
		if err := s.buildWorkloadDemand(); err != nil {
			return err
		}
	}
	return nil
}

// buildWorkloadDemand precomputes the Workload demand schedule through
// sim.DemandSchedule, so the schedule — and thus every platform round —
// is a pure function of the scenario.
func (s *Scenario) buildWorkloadDemand() error {
	w := s.Workload
	if w.MaxDemand < 0 {
		return fmt.Errorf("chaos: scenario %q: negative workload demand cap %d", s.Name, w.MaxDemand)
	}
	g, err := workload.BuiltinGraph(w.Topology)
	if err != nil {
		loaded, ferr := workload.LoadServiceGraph(w.Topology)
		if ferr != nil {
			return fmt.Errorf("chaos: scenario %q: workload topology %q is neither builtin (%v) nor loadable (%v)",
				s.Name, w.Topology, err, ferr)
		}
		g = loaded
	}
	maxDemand := w.MaxDemand
	if maxDemand == 0 {
		maxDemand = 6
	}
	s.wlDemand, err = sim.DemandSchedule(g, w.WorkScale, maxDemand, s.Rounds, s.Seed)
	if err != nil {
		return fmt.Errorf("chaos: scenario %q: workload demand: %w", s.Name, err)
	}
	return nil
}

// Load parses a JSON scenario and validates it.
func Load(data []byte) (*Scenario, error) {
	var s Scenario
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("chaos: parse scenario: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// LoadFile reads and parses a JSON scenario file.
func LoadFile(path string) (*Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("chaos: read scenario: %w", err)
	}
	s, err := Load(data)
	if err != nil {
		return nil, fmt.Errorf("chaos: %s: %w", path, err)
	}
	return s, nil
}

// JSON renders the scenario (with defaults applied) as indented JSON,
// suitable for committing under testdata/scenarios.
func (s *Scenario) JSON() ([]byte, error) {
	s.applyDefaults()
	return json.MarshalIndent(s, "", "  ")
}
