// Command platformd runs the auctioneer daemon: it listens for
// microservice agents (see cmd/msagent), then clears auction rounds on a
// fixed period with a synthetic residual demand, printing results as they
// happen. SIGINT/SIGTERM shut it down gracefully, notifying agents.
//
// Usage:
//
//	platformd -listen 127.0.0.1:7070 -period 2s -rounds 0   # run forever
//	platformd -listen 127.0.0.1:7070 -rounds 10             # ten rounds
//	platformd -rounds 20 -workload overload -work-scale 3   # topology-driven demand
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"edgeauction/internal/core"
	"edgeauction/internal/obs"
	"edgeauction/internal/platform"
	"edgeauction/internal/sim"
	"edgeauction/internal/workload"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "platformd:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("platformd", flag.ContinueOnError)
	listen := fs.String("listen", "127.0.0.1:7070", "listen address")
	period := fs.Duration("period", 2*time.Second, "time between auction rounds")
	rounds := fs.Int("rounds", 0, "rounds to run (0 = until interrupted)")
	needyLo := fs.Int("needy-min", 1, "minimum needy microservices per round")
	needyHi := fs.Int("needy-max", 3, "maximum needy microservices per round")
	demandLo := fs.Int("demand-min", 1, "minimum coverage demand per needy microservice")
	demandHi := fs.Int("demand-max", 4, "maximum coverage demand per needy microservice")
	deadline := fs.Duration("bid-deadline", 500*time.Millisecond, "how long each round stays open for bids")
	seed := fs.Int64("seed", 1, "demand generator seed")
	parallelism := fs.Int("parallelism", 0, "payment-phase worker goroutines (0 = GOMAXPROCS, 1 = serial; results identical)")
	auditPath := fs.String("audit", "", "append a JSONL audit record per round to this file")
	auditWallClock := fs.Bool("audit-wall-clock", false, "stamp audit records with wall-clock time instead of the logical round clock (breaks byte-identical seeded runs)")
	walPath := fs.String("wal", "", "write-ahead log: append each round's record here BEFORE announcing awards, making state crash-recoverable (see -recover)")
	snapshotDir := fs.String("snapshot-dir", "", "checkpoint mechanism state into this directory (see -snapshot-every and -recover)")
	snapshotEvery := fs.Int("snapshot-every", 50, "write a snapshot every N rounds when -snapshot-dir is set (0 disables)")
	recoverFlag := fs.Bool("recover", false, "recover state from -snapshot-dir + -wal before serving: load the latest snapshot, replay the WAL suffix, and resume the round sequence")
	fsync := fs.Bool("fsync", false, "fsync the WAL on every append (durable against power loss, not just process death)")
	traceOut := fs.String("trace-out", "", "append a JSONL observability event per auction step to this file")
	debugAddr := fs.String("debug-addr", "", "serve /metrics, expvar /debug/vars and pprof on this address (empty = disabled)")
	pipeline := fs.Bool("pipeline", false, "overlap each round's bid gathering with the previous round's settlement (requires -rounds > 0; ignores -period)")
	bidRate := fs.Float64("bid-rate", 0, "admission: per-agent bid token refill per second (0 = no rate limit)")
	bidBurst := fs.Int("bid-burst", 0, "admission: per-agent bid token bucket size (0 = 1 when -bid-rate is set)")
	breakerThreshold := fs.Int("breaker-threshold", 0, "admission: consecutive qualifying drops that open an agent's circuit (0 = no breaker)")
	breakerCooldown := fs.Duration("breaker-cooldown", 0, "admission: how long an open circuit refuses re-registration (0 = default)")
	queueBound := fs.Int("queue-bound", 0, "admission: max submissions per agent per round before queue_full sheds (0 = unbounded)")
	var mechanism core.MechanismSpec
	fs.Var(&mechanism, "mechanism", "mechanism spec, e.g. 'posted-price:epsilon=0.1' or 'double-auction:overbook=1.25' (empty = ssam)")
	workloadName := fs.String("workload", "", "builtin service topology: announce demand derived from simulated load instead of i.i.d. draws (requires -rounds > 0)")
	topologyPath := fs.String("topology", "", "YAML service topology file: like -workload but loaded from a file (requires -rounds > 0)")
	workScale := fs.Float64("work-scale", 1, "multiply every service's work by this factor in -workload/-topology mode")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *needyHi < *needyLo || *demandHi < *demandLo {
		return fmt.Errorf("invalid demand ranges")
	}
	graph, err := workload.ResolveGraph(*workloadName, *topologyPath)
	if err != nil {
		return err
	}
	if graph != nil && *rounds <= 0 {
		return fmt.Errorf("-workload/-topology need -rounds > 0 (the demand schedule is precomputed)")
	}
	if *pipeline && *rounds <= 0 {
		return fmt.Errorf("-pipeline needs -rounds > 0 (overlapped rounds run back to back, not on a period)")
	}
	if *recoverFlag && *walPath == "" && *snapshotDir == "" {
		return fmt.Errorf("-recover needs -wal and/or -snapshot-dir to recover from")
	}

	logger := log.New(os.Stderr, "platformd: ", log.LstdFlags)
	scfg := platform.ServerConfig{
		BidDeadline: *deadline,
		Logger:      logger,
	}
	scfg.Auction.Options.Parallelism = *parallelism
	scfg.Auction.Mechanism = mechanism
	scfg.Admission = platform.AdmissionConfig{
		BidRate:          *bidRate,
		BidBurst:         *bidBurst,
		BreakerThreshold: *breakerThreshold,
		BreakerCooldown:  *breakerCooldown,
		QueueBound:       *queueBound,
	}
	if *auditPath != "" {
		f, err := os.OpenFile(*auditPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("open audit log: %w", err)
		}
		defer func() {
			if err := f.Close(); err != nil {
				logger.Printf("close audit log: %v", err)
			}
		}()
		scfg.Audit = platform.NewAudit(f)
		if !*auditWallClock {
			// Logical round clock: identically-seeded runs produce
			// byte-identical audit logs.
			scfg.Audit.WithClock(platform.LogicalClock)
		}
	}
	if *recoverFlag {
		rec, err := platform.Recover(*walPath, *snapshotDir, scfg.Auction)
		if err != nil {
			return fmt.Errorf("recover: %w", err)
		}
		scfg.Resume = rec
		fmt.Printf("recovered: snapshot round %d, %d WAL records replayed (torn tail: %v), resuming at round %d, state %s\n",
			rec.SnapshotRound, rec.Replayed, rec.Truncated, rec.NextRound, rec.Hash[:12])
	}
	if *walPath != "" {
		wal, err := platform.CreateWAL(*walPath, *fsync)
		if err != nil {
			return err
		}
		defer func() {
			if err := wal.Close(); err != nil {
				logger.Printf("close WAL: %v", err)
			}
		}()
		scfg.WAL = wal
	}
	var trace *obs.JSONL
	if *traceOut != "" {
		f, err := os.OpenFile(*traceOut, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("open trace log: %w", err)
		}
		// Buffer the event stream so a hot round isn't a syscall per
		// event. The deferred flush runs after srv.Close (defers are
		// LIFO), i.e. after the server has emitted its final events, so
		// the file is complete on every exit path including SIGINT.
		bw := bufio.NewWriter(f)
		trace = obs.NewJSONL(bw)
		defer func() {
			if err := trace.Err(); err != nil {
				logger.Printf("trace log: %v", err)
			}
			if err := bw.Flush(); err != nil {
				logger.Printf("flush trace log: %v", err)
			}
			if err := f.Close(); err != nil {
				logger.Printf("close trace log: %v", err)
			}
		}()
		scfg.Tracer = trace
	}
	if trace != nil && scfg.Resume != nil {
		rec := scfg.Resume
		trace.Emit(obs.Recovery{
			SnapshotRound: rec.SnapshotRound, Replayed: rec.Replayed,
			NextRound: rec.NextRound, Hash: rec.Hash, Truncated: rec.Truncated,
		})
	}
	srv, err := platform.NewServer(*listen, scfg)
	if err != nil {
		return err
	}
	defer func() {
		if err := srv.Close(); err != nil {
			logger.Printf("close: %v", err)
		}
	}()
	fmt.Printf("auctioneer listening on %s (round period %v)\n", srv.Addr(), *period)

	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			return fmt.Errorf("debug listen: %w", err)
		}
		dsrv := &http.Server{Handler: debugMux(srv)}
		go func() {
			if err := dsrv.Serve(dln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Printf("debug server: %v", err)
			}
		}()
		defer func() {
			// Graceful shutdown lets an in-flight /metrics or pprof
			// scrape finish; the bound keeps a stuck profile stream
			// from wedging SIGINT handling.
			sctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			if err := dsrv.Shutdown(sctx); err != nil {
				logger.Printf("shutdown debug server: %v", err)
			}
		}()
		fmt.Printf("debug server listening on http://%s (/metrics, /debug/vars, /debug/pprof/)\n", dln.Addr())
	}

	// A signal cancels ctx, which both breaks the wait between rounds and
	// aborts a round that is mid-gather (RunRoundContext returns the
	// wrapped context error, treated as a graceful stop below).
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	ticker := time.NewTicker(*period)
	defer ticker.Stop()

	// Demand is drawn from a per-round sub-stream keyed by the round
	// number, not a sequential generator: a recovered daemon resuming at
	// round N announces exactly the demand the dead process would have,
	// so the seeded run (and its audit/WAL bytes) continues unchanged
	// across crashes.
	nextRound := 1
	if scfg.Resume != nil {
		nextRound = scfg.Resume.NextRound
	}
	// In -workload/-topology mode the whole schedule is precomputed as a
	// pure function of the seed, through the last round this process will
	// announce — a recovered daemon resuming at round N rebuilds exactly
	// the demand the dead process would have announced at N.
	var wlSched [][]int
	if graph != nil {
		// The same derivation the chaos overload scenario uses, capped at
		// 6 units per needy service.
		wlSched, err = sim.DemandSchedule(graph, *workScale, 6, nextRound-1+*rounds, *seed)
		if err != nil {
			return fmt.Errorf("workload demand: %w", err)
		}
		fmt.Printf("workload demand: %q service graph, %d rounds precomputed\n", graph.Name, len(wlSched))
	}
	demandFor := func(round int) []int {
		if wlSched != nil {
			return append([]int(nil), wlSched[round-1]...)
		}
		rng := workload.NewDerived(*seed, "demand", round, 0)
		needy := rng.UniformInt(*needyLo, *needyHi)
		demand := make([]int, needy)
		for k := range demand {
			demand[k] = rng.UniformInt(*demandLo, *demandHi)
		}
		return demand
	}

	if *pipeline {
		// Overlapped mode: rounds run back to back, each round's bid
		// gathering concurrent with the previous round's settlement. The
		// per-round derived demand stream makes the sequence byte-identical
		// to a serial run with the same seed.
		for srv.AgentCount() == 0 {
			select {
			case <-ctx.Done():
				fmt.Println("\nreceived signal, shutting down")
				return nil
			case <-time.After(50 * time.Millisecond):
			}
		}
		err := srv.RunPipelined(ctx, *rounds,
			func(t int) ([]int, []int) { return demandFor(t), nil },
			func(out *platform.RoundOutcome) error {
				if out.Infeasible {
					fmt.Printf("round %d: infeasible (%d bids)\n", out.T, out.Bids)
				} else {
					fmt.Printf("round %d: cleared at social cost %.2f, %d winners, %d bids\n",
						out.T, out.SocialCost, len(out.Awards), out.Bids)
				}
				return nil
			})
		if errors.Is(err, context.Canceled) {
			fmt.Println("\npipelined run aborted by signal, shutting down")
			printSummary(srv)
			return nil
		}
		if err != nil {
			return fmt.Errorf("pipelined run: %w", err)
		}
		printSummary(srv)
		return nil
	}

	done := 0
	for {
		select {
		case <-ctx.Done():
			fmt.Println("\nreceived signal, shutting down")
			printSummary(srv)
			return nil
		case <-ticker.C:
		}
		if srv.AgentCount() == 0 {
			fmt.Println("no agents registered; skipping round")
			continue
		}
		demand := demandFor(nextRound)
		out, err := srv.RunRoundContext(ctx, demand, nil)
		if errors.Is(err, context.Canceled) {
			fmt.Println("\nround aborted by signal, shutting down")
			printSummary(srv)
			return nil
		}
		if err != nil {
			return fmt.Errorf("round: %w", err)
		}
		if out.Infeasible {
			fmt.Printf("round %d: demand %v infeasible (%d bids)\n", out.T, demand, out.Bids)
		} else {
			fmt.Printf("round %d: demand %v cleared at social cost %.2f, %d winners, %d bids\n",
				out.T, demand, out.SocialCost, len(out.Awards), out.Bids)
		}
		nextRound = out.T + 1
		if *snapshotDir != "" && *snapshotEvery > 0 && out.T%*snapshotEvery == 0 {
			round, st := srv.SnapshotState()
			path, err := platform.WriteSnapshot(*snapshotDir, round, st)
			if err != nil {
				logger.Printf("snapshot: %v", err)
			} else {
				logger.Printf("snapshot: round %d state checkpointed to %s", round, path)
				if trace != nil {
					trace.Emit(obs.Snapshot{T: round, Hash: st.Hash(), Bidders: len(st.Bidders), Path: path})
				}
			}
		}
		done++
		if *rounds > 0 && done >= *rounds {
			printSummary(srv)
			return nil
		}
	}
}

// debugMux builds the observability endpoint: the server's live metrics
// snapshot as JSON, the process expvars, and the pprof profiles. A
// dedicated mux (rather than http.DefaultServeMux) keeps the endpoint
// self-contained and testable.
func debugMux(srv *platform.Server) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(srv.Metrics().Snapshot())
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func printSummary(srv *platform.Server) {
	if sum := srv.Summary(); sum != nil {
		fmt.Printf("summary: %d rounds, social cost %.2f, paid %.2f, %d infeasible\n",
			sum.Rounds, sum.SocialCost, sum.TotalPayment, sum.InfeasibleRounds)
	}
}
