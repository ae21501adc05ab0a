package loadgen

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"edgeauction/internal/obs"
	"edgeauction/internal/platform"
)

// RunConfig parameterizes a self-contained load benchmark: an
// in-process platform server driven by a multiplexed Fleet.
type RunConfig struct {
	// Agents is the fleet size (required, > 0).
	Agents int
	// Rounds is how many measured rounds to clear (required, > 0).
	Rounds int
	// Pipelined selects RunPipelined (gather t+1 overlapped with settle
	// t) instead of the serial RunRound loop.
	Pipelined bool
	// ThinkTime is the fleet's simulated per-session decision latency.
	ThinkTime time.Duration
	// AgentsPerConn is the session multiplexing factor (0 = default).
	AgentsPerConn int
}

// The benchmark's fixed server and workload settings.
const (
	// benchWarmup rounds run before measurement starts so pools and
	// per-session buffers reach steady state.
	benchWarmup = 1
	// benchBidDeadline bounds each gather. Fleets always answer, so
	// rounds close at the last bid, far before the deadline.
	benchBidDeadline = 30 * time.Second
	// benchPipelineYield is the scheduling window RunPipelined grants the
	// ingest path after each announce (platform.ServerConfig.PipelineYield).
	// The fleet shares the server's runtime here, so the yield is what
	// lets agent read loops observe the announce before the solve occupies
	// the processor. Serial rounds ignore it.
	benchPipelineYield = time.Millisecond
)

// benchDemand is every round's residual demand: a fixed 4-service vector
// so runs are comparable.
var benchDemand = []int{2, 1, 2, 1}

// Result is one load-benchmark measurement.
type Result struct {
	Agents    int  `json:"agents"`
	Sessions  int  `json:"sessions"`
	Rounds    int  `json:"rounds"`
	Pipelined bool `json:"pipelined"`

	ElapsedMillis   float64 `json:"elapsed_ms"`
	RoundsPerSec    float64 `json:"rounds_per_sec"`
	P99BidRTTMicros float64 `json:"p99_bid_rtt_us"`

	// GatherMillis and SettleMillis are the mean per-round stage
	// durations (obs.StageLatency). Their ratio to ThinkTime is what
	// decides whether the pipeline has anything to hide: the overlap
	// gain per round is bounded by min(settle, think) — at saturation
	// (gather is pure decode CPU, think a sliver of the round) the two
	// engines honestly converge.
	GatherMillis float64 `json:"gather_ms"`
	SettleMillis float64 `json:"settle_ms"`

	// Bids is the total bids gathered into measured rounds.
	Bids int64 `json:"bids"`
	// Rejections counts admission-control sheds observed by the fleet.
	Rejections int64 `json:"rejections"`
	// AllocBytesPerAgentRound is the process-wide heap allocation per
	// agent-round during measurement (server + in-process fleet). The
	// pooled round engine keeps this flat as agent count grows.
	AllocBytesPerAgentRound float64 `json:"alloc_bytes_per_agent_round"`
}

// harness is a live server + registered fleet, reused across measurement
// passes so paired comparisons share one process state (pools warm, GC
// heap comparable, identical sockets).
type harness struct {
	cfg    RunConfig
	srv    *platform.Server
	fleet  *Fleet
	stages *stageMeans
}

// stageMeans accumulates obs.StageLatency durations per stage between
// take() calls, so each measured block reports its own means.
type stageMeans struct {
	mu  sync.Mutex
	sum map[string]int64
	n   map[string]int64
}

func newStageMeans() *stageMeans {
	return &stageMeans{sum: map[string]int64{}, n: map[string]int64{}}
}

func (m *stageMeans) Emit(ev obs.Event) {
	sl, ok := ev.(obs.StageLatency)
	if !ok {
		return
	}
	m.mu.Lock()
	m.sum[sl.Stage] += sl.DurationMicros
	m.n[sl.Stage]++
	m.mu.Unlock()
}

// take returns the mean duration of stage in milliseconds since the last
// take of that stage, then resets it.
func (m *stageMeans) take(stage string) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := m.n[stage]
	if n == 0 {
		return 0
	}
	mean := float64(m.sum[stage]) / float64(n) / 1000
	delete(m.sum, stage)
	delete(m.n, stage)
	return mean
}

func newHarness(cfg RunConfig) (*harness, error) {
	if cfg.Agents <= 0 || cfg.Rounds <= 0 {
		return nil, fmt.Errorf("loadgen: need positive Agents and Rounds, got %d/%d", cfg.Agents, cfg.Rounds)
	}
	stages := newStageMeans()
	srv, err := platform.NewServer("127.0.0.1:0", platform.ServerConfig{
		BidDeadline:   benchBidDeadline,
		PipelineYield: benchPipelineYield,
		Tracer:        stages,
	})
	if err != nil {
		return nil, err
	}
	fleet, err := Dial(srv.Addr(), Config{
		Agents:        cfg.Agents,
		AgentsPerConn: cfg.AgentsPerConn,
		ThinkTime:     cfg.ThinkTime,
	})
	if err != nil {
		_ = srv.Close()
		return nil, err
	}
	regDeadline := time.Now().Add(60 * time.Second)
	for srv.AgentCount() < cfg.Agents {
		if time.Now().After(regDeadline) {
			_ = fleet.Close()
			_ = srv.Close()
			return nil, fmt.Errorf("loadgen: only %d/%d agents registered after 60s", srv.AgentCount(), cfg.Agents)
		}
		time.Sleep(2 * time.Millisecond)
	}
	return &harness{cfg: cfg, srv: srv, fleet: fleet, stages: stages}, nil
}

func (h *harness) close() {
	_ = h.fleet.Close()
	_ = h.srv.Close()
}

func (h *harness) runRounds(pipelined bool, n int) (int64, error) {
	var bids int64
	if pipelined {
		err := h.srv.RunPipelined(context.Background(), n,
			func(int) ([]int, []int) { return benchDemand, nil },
			func(out *platform.RoundOutcome) error {
				bids += int64(out.Bids)
				return nil
			})
		return bids, err
	}
	for i := 0; i < n; i++ {
		out, err := h.srv.RunRound(benchDemand, nil)
		if err != nil {
			return bids, err
		}
		bids += int64(out.Bids)
	}
	return bids, nil
}

// measure times one block of n rounds in the given mode.
func (h *harness) measure(pipelined bool, n int) (*Result, error) {
	// Drop stage samples from warmup or the previous block.
	h.stages.take("gather")
	h.stages.take("settle")
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	bids, err := h.runRounds(pipelined, n)
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	if err != nil {
		return nil, fmt.Errorf("loadgen: measured rounds: %w", err)
	}
	return &Result{
		Agents:          h.cfg.Agents,
		Sessions:        h.fleet.Sessions(),
		Rounds:          n,
		Pipelined:       pipelined,
		ElapsedMillis:   float64(elapsed.Microseconds()) / 1000,
		RoundsPerSec:    float64(n) / elapsed.Seconds(),
		GatherMillis:    h.stages.take("gather"),
		SettleMillis:    h.stages.take("settle"),
		P99BidRTTMicros: h.srv.Metrics().Histogram("platform_bid_rtt_us", 0, 1e6, 500).Quantile(0.99),
		Bids:            bids,
		Rejections:      h.fleet.Rejections(),
		AllocBytesPerAgentRound: float64(after.TotalAlloc-before.TotalAlloc) /
			float64(h.cfg.Agents*n),
	}, nil
}

// Run starts a server on a loopback port, connects the fleet, clears
// warmup + measured rounds, and reports throughput, tail latency, and
// allocation rate. The server and fleet are torn down before returning.
func Run(cfg RunConfig) (*Result, error) {
	h, err := newHarness(cfg)
	if err != nil {
		return nil, err
	}
	defer h.close()
	if _, err := h.runRounds(cfg.Pipelined, benchWarmup); err != nil {
		return nil, fmt.Errorf("loadgen: warmup: %w", err)
	}
	return h.measure(cfg.Pipelined, cfg.Rounds)
}

// PairedResult compares the serial and pipelined round engines over one
// shared server + fleet.
type PairedResult struct {
	// Serial and Pipelined are median-of-passes measurements (median
	// selected by rounds/sec; alloc and p99 fields come from the same
	// median pass).
	Serial    Result `json:"serial"`
	Pipelined Result `json:"pipelined"`
	// Passes is how many times each mode ran.
	Passes int `json:"passes"`
	// SpeedupPct is the pipelined median throughput gain over serial.
	SpeedupPct float64 `json:"speedup_pct"`
}

// RunPaired measures both modes back to back `passes` times, alternating
// serial and pipelined blocks inside one process so scheduler noise, GC
// pacing and cache state hit both equally, and reports the median pass
// per mode. cfg.Pipelined is ignored. This is the shape the committed
// load benchmark uses: on a noisy single-core box a single pass of each
// mode can swing ±20%, which would drown the overlap gain.
func RunPaired(cfg RunConfig, passes int) (*PairedResult, error) {
	if passes <= 0 {
		passes = 3
	}
	h, err := newHarness(cfg)
	if err != nil {
		return nil, err
	}
	defer h.close()
	// Warm both code paths before measuring.
	if _, err := h.runRounds(false, benchWarmup); err != nil {
		return nil, fmt.Errorf("loadgen: warmup: %w", err)
	}
	if _, err := h.runRounds(true, benchWarmup); err != nil {
		return nil, fmt.Errorf("loadgen: warmup: %w", err)
	}
	var serial, pipelined []*Result
	for p := 0; p < passes; p++ {
		for _, mode := range []bool{false, true} {
			res, err := h.measure(mode, cfg.Rounds)
			if err != nil {
				return nil, err
			}
			if mode {
				pipelined = append(pipelined, res)
			} else {
				serial = append(serial, res)
			}
		}
	}
	out := &PairedResult{
		Serial:    *medianByThroughput(serial),
		Pipelined: *medianByThroughput(pipelined),
		Passes:    passes,
	}
	out.SpeedupPct = (out.Pipelined.RoundsPerSec/out.Serial.RoundsPerSec - 1) * 100
	return out, nil
}

// medianByThroughput picks the pass with the median rounds/sec.
func medianByThroughput(rs []*Result) *Result {
	sorted := make([]*Result, len(rs))
	copy(sorted, rs)
	sort.Slice(sorted, func(i, j int) bool {
		return sorted[i].RoundsPerSec < sorted[j].RoundsPerSec
	})
	return sorted[len(sorted)/2]
}
