package chaos

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"time"

	"edgeauction/internal/core"
	"edgeauction/internal/platform"
)

// Comparison passes run with a bid deadline no round comes near. Every
// comparison agent always bids, so a round closes on its last bid and the
// WAL bytes cannot depend on scheduling; the deadline is only a backstop.
// A deadline a loaded host can miss would let one pass lose a bid the
// other kept, and the passes would differ.
const compareBidDeadline = 10 * time.Second

// compareYield is the pipelined pass's overlap window
// (platform.ServerConfig.PipelineYield), so that pass really settles
// round t while round t+1's bids stream in. Serial rounds ignore it.
const compareYield = 500 * time.Microsecond

// CompareConfig parameterizes one comparison run (RunCompare).
type CompareConfig struct {
	// Scenario declares the run; its PlatformCrashes or Pipelined field
	// selects the variant pass. The harness drives a simplified agent
	// population — every declared agent is connected for the whole run
	// and always bids — because the churn engine's in-flight state
	// (parked stale bids, pending rejoins, auditor batches) cannot span a
	// process restart; what matters here is that both passes see
	// identical workloads, which scenarioDemand/scenarioBids guarantee by
	// construction.
	Scenario *Scenario
	// Dir is the working directory for the two WALs and the snapshot
	// directory (required; the caller owns cleanup).
	Dir string
	// SnapshotEvery checkpoints the crashed pass every N rounds so
	// recovery exercises snapshot + WAL-SUFFIX replay, not just full-log
	// replay; 0 disables snapshots. The pipelined pass ignores it.
	SnapshotEvery int
	// Fsync forces the WALs to stable storage on every append.
	Fsync bool
	// Logger receives operational progress; nil discards it.
	Logger *log.Logger
}

// CompareResult is the outcome of one comparison run: an uninterrupted
// serial baseline pass and a variant pass over the same scenario,
// compared byte-for-byte.
type CompareResult struct {
	Scenario string
	Seed     int64
	Rounds   int
	// Variant names the pass compared with the baseline, and its WAL
	// file (<Variant>.wal next to baseline.wal): "crashed" or
	// "pipelined".
	Variant string
	// Crashes counts scripted kills that fired; Recoveries counts
	// snapshot+replay restarts (equal unless the run ended on a crash in
	// the final round); Replayed totals WAL records re-run through the
	// shadow mechanism across recoveries; Snapshots counts checkpoints
	// written. All four are zero for a pipelined run.
	Crashes    int
	Recoveries int
	Replayed   int
	Snapshots  int
	// BaselineHash/VariantHash fingerprint the final mechanism state
	// (core.MSOAState.Hash) of each pass.
	BaselineHash string
	VariantHash  string
	// BaselineSummary/VariantSummary are each pass's aggregate outcome.
	BaselineSummary *core.OnlineSummary
	VariantSummary  *core.OnlineSummary
	// WALMatch reports the two write-ahead logs are byte-identical — the
	// strongest statement: the variant not only reached the same state,
	// it logged the exact bytes an uninterrupted serial platform would
	// have.
	WALMatch bool
	// Match is the overall verdict: state hashes, summaries, and WAL
	// bytes all agree.
	Match bool
}

// crashKey identifies one scripted kill so it fires exactly once — the
// re-run of a mid-gather-crashed round must not crash again, mirroring a
// real one-off process death.
type crashKey struct {
	round int
	point string
}

// pass is what one comparison pass varies. A pass with only a name
// ("baseline") is the uninterrupted serial RunRound loop.
type pass struct {
	// name is the log label and the WAL file stem.
	name string
	// script kills the platform once at each key and restarts it through
	// platform.Recover; snapDir receives the periodic checkpoints.
	script  map[crashKey]bool
	snapDir string
	// pipelined clears the rounds through platform.RunPipelined.
	pipelined bool
}

// passResult is one pass's outcome.
type passResult struct {
	wal        []byte
	hash       string
	summary    *core.OnlineSummary
	crashes    int
	recoveries int
	replayed   int
	snapshots  int
}

// RunCompare runs the scenario twice — an uninterrupted serial baseline
// (WAL on, no kills) and a variant — and compares the passes. A scenario
// with platform crash points gets the crashed variant: the platform dies
// at every scripted point and restarts from platform.Recover (latest
// snapshot + WAL-suffix replay through the shadow mechanism). Otherwise a
// Pipelined scenario gets the pipelined variant: the rounds clear through
// platform.RunPipelined with a real overlap window. The final ψ/χ state
// hash, the OnlineSummary, and the raw WAL bytes of the two passes must
// agree; Match reports whether they do.
func RunCompare(cfg CompareConfig) (*CompareResult, error) {
	sc := cfg.Scenario
	if sc == nil {
		return nil, fmt.Errorf("chaos: no scenario")
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	if cfg.Dir == "" {
		return nil, fmt.Errorf("chaos: comparison run needs a working dir")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("chaos: comparison dir: %w", err)
	}
	logger := cfg.Logger
	if logger == nil {
		logger = log.New(io.Discard, "", 0)
	}

	// A scenario with neither crash points nor Pipelined gets a crashed
	// pass without kills: an uninterrupted rerun of the baseline.
	variant := pass{name: "crashed", script: map[crashKey]bool{}, snapDir: filepath.Join(cfg.Dir, "snapshots")}
	for _, c := range sc.PlatformCrashes {
		variant.script[crashKey{round: c.Round, point: c.Point}] = false
	}
	if len(sc.PlatformCrashes) == 0 && sc.Pipelined {
		variant = pass{name: "pipelined", pipelined: true}
	}

	base, err := runPass(sc, cfg, pass{name: "baseline"}, logger)
	if err != nil {
		return nil, fmt.Errorf("chaos: baseline pass: %w", err)
	}
	v, err := runPass(sc, cfg, variant, logger)
	if err != nil {
		return nil, fmt.Errorf("chaos: %s pass: %w", variant.name, err)
	}
	res := &CompareResult{
		Scenario: sc.Name, Seed: sc.Seed, Rounds: sc.Rounds, Variant: variant.name,
		Crashes: v.crashes, Recoveries: v.recoveries, Replayed: v.replayed, Snapshots: v.snapshots,
		BaselineHash: base.hash, VariantHash: v.hash,
		BaselineSummary: base.summary, VariantSummary: v.summary,
	}
	res.WALMatch, res.Match = verdict(base, v)
	return res, nil
}

// verdict compares a variant pass with the baseline: the raw WAL bytes,
// the final state hash and the summary must all agree.
func verdict(base, variant *passResult) (walMatch, match bool) {
	walMatch = bytes.Equal(base.wal, variant.wal)
	match = walMatch && base.hash == variant.hash &&
		base.summary != nil && variant.summary != nil &&
		*base.summary == *variant.summary
	return walMatch, match
}

// runPass runs the scenario once as p describes, writing
// <Dir>/<p.name>.wal, and captures the final state and the WAL bytes.
func runPass(sc *Scenario, cfg CompareConfig, p pass, logger *log.Logger) (*passResult, error) {
	walPath := filepath.Join(cfg.Dir, p.name+".wal")
	auction := core.MSOAConfig{Mechanism: sc.MechanismSpec(), Options: core.Options{Parallelism: 1}}
	pr := &passResult{}
	var resume *platform.RecoveredState
	next := 1
	logger.Printf("chaos: %s pass: %d rounds over %d agents", p.name, sc.Rounds, len(sc.Agents))

	for {
		wal, err := platform.CreateWAL(walPath, cfg.Fsync)
		if err != nil {
			return nil, err
		}
		srvCfg := platform.ServerConfig{
			BidDeadline:   compareBidDeadline,
			WriteTimeout:  250 * time.Millisecond,
			Auction:       auction,
			WAL:           wal,
			Resume:        resume,
			PipelineYield: compareYield,
		}
		if p.script != nil {
			srvCfg.Fault.Crash = func(t int, point string) error {
				k := crashKey{round: t, point: point}
				if fired, scripted := p.script[k]; scripted && !fired {
					p.script[k] = true
					return platform.ErrCrashed
				}
				return nil
			}
		}
		srv, err := platform.NewServer("127.0.0.1:0", srvCfg)
		if err != nil {
			_ = wal.Close()
			return nil, err
		}
		agents, err := dialAll(srv, sc)
		if err != nil {
			_ = srv.Close()
			_ = wal.Close()
			return nil, err
		}

		crashed := false
		var roundErr error
		if p.pipelined {
			roundErr = srv.RunPipelined(context.Background(), sc.Rounds,
				func(t int) ([]int, []int) { return scenarioDemand(sc, t), nil }, nil)
		} else {
			for t := next; t <= sc.Rounds; t++ {
				if _, err := srv.RunRound(scenarioDemand(sc, t), nil); err != nil {
					if errors.Is(err, platform.ErrCrashed) {
						logger.Printf("chaos: %v", err)
						pr.crashes++
						crashed = true
					} else {
						roundErr = fmt.Errorf("chaos: round %d: %w", t, err)
					}
					break
				}
				next = t + 1
				if p.snapDir != "" && cfg.SnapshotEvery > 0 && t%cfg.SnapshotEvery == 0 {
					round, st := srv.SnapshotState()
					if _, err := platform.WriteSnapshot(p.snapDir, round, st); err != nil {
						roundErr = err
						break
					}
					pr.snapshots++
				}
			}
		}
		if !crashed && roundErr == nil {
			// Capture the final state before tearing the server down.
			_, st := srv.SnapshotState()
			if st == nil {
				st = &core.MSOAState{}
			}
			pr.hash = st.Hash()
			pr.summary = srv.Summary()
		}
		for _, ag := range agents {
			_ = ag.Close()
		}
		_ = srv.Close()
		_ = wal.Close()
		if roundErr != nil {
			return nil, roundErr
		}
		if !crashed {
			break
		}

		// The process is "dead": everything in memory is gone. Rebuild from
		// the durable artifacts alone.
		rec, err := platform.Recover(walPath, p.snapDir, auction)
		if err != nil {
			return nil, err
		}
		pr.recoveries++
		pr.replayed += rec.Replayed
		logger.Printf("chaos: recovered: snapshot round %d, %d records replayed, resuming at round %d (state %s)",
			rec.SnapshotRound, rec.Replayed, rec.NextRound, rec.Hash[:12])
		resume = rec
		next = rec.NextRound
		if next > sc.Rounds {
			// The crash hit the final round after its WAL append; the
			// recovered state IS the pass result.
			pr.hash = rec.Hash
			sum := rec.State.Summary
			pr.summary = &sum
			break
		}
	}

	wal, err := os.ReadFile(walPath)
	if err != nil {
		return nil, fmt.Errorf("chaos: read %s WAL: %w", p.name, err)
	}
	pr.wal = wal
	return pr, nil
}

// dialAll connects one always-bidding agent per scenario spec and waits
// until the platform's registration table sees them all.
func dialAll(srv *platform.Server, sc *Scenario) ([]*platform.Agent, error) {
	agents := make([]*platform.Agent, 0, len(sc.Agents))
	for _, spec := range sc.Agents {
		spec := spec
		ag, err := platform.Dial(srv.Addr(), platform.AgentConfig{
			ID: spec.ID, Capacity: spec.Capacity,
			Policy: func(msg *platform.AnnounceMsg) []platform.WireBid {
				return scenarioBids(sc, spec, msg.T, len(msg.Demand))
			},
			DialTimeout: 2 * time.Second, WriteTimeout: 250 * time.Millisecond,
		})
		if err != nil {
			for _, a := range agents {
				_ = a.Close()
			}
			return nil, fmt.Errorf("chaos: agent %d join: %w", spec.ID, err)
		}
		agents = append(agents, ag)
	}
	if !waitFor(2*time.Second, func() bool { return srv.AgentCount() == len(agents) }) {
		for _, a := range agents {
			_ = a.Close()
		}
		return nil, fmt.Errorf("chaos: server sees %d agents, want %d", srv.AgentCount(), len(agents))
	}
	return agents, nil
}
