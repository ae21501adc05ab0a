// Command edgesim runs the full simulated pipeline: the discrete-event
// edge-cloud simulator, the §III demand estimator, and the online auction,
// printing per-round system state and the long-run economic summary.
//
// Usage:
//
//	edgesim -services 30 -rounds 10 -seed 7 -workmean 600
//
// With -workload NAME (a builtin service topology; use 'list' to see
// them) or -topology FILE (a YAML topology) the simulator runs in graph
// mode: requests flow through the service call graph, per-microservice
// indicators are computed from simulated load, and auction winnings
// feed back into next-round allocations. Graph mode can also replay or
// record external arrivals as a JSONL request trace:
//
//	edgesim -workload overload -rounds 20 -reqtrace-out arrivals.jsonl
//	edgesim -workload overload -rounds 20 -reqtrace-in arrivals.jsonl
//
// With -load N it instead runs the platform load benchmark: N agents
// multiplexed over few TCP sessions drive an in-process auctioneer and
// the tool reports rounds/sec and p99 bid round-trip latency:
//
//	edgesim -load 10000 -load-rounds 20 -load-pipeline
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"edgeauction/internal/core"
	"edgeauction/internal/obs"
	"edgeauction/internal/sim"
	"edgeauction/internal/workload"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "edgesim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("edgesim", flag.ContinueOnError)
	services := fs.Int("services", 30, "number of microservices")
	rounds := fs.Int("rounds", 10, "rounds to simulate")
	seed := fs.Int64("seed", 7, "simulation seed")
	workMean := fs.Float64("workmean", 600, "mean work units per request")
	workDist := fs.String("workdist", "exponential", "work distribution: exponential, pareto, uniform, deterministic")
	capacity := fs.Int("capacity", 12, "per-bidder lifetime sharing capacity (coverage slots)")
	parallelism := fs.Int("parallelism", 0, "payment-phase worker goroutines (0 = GOMAXPROCS, 1 = serial; results identical)")
	verbose := fs.Bool("v", false, "print per-microservice indicators each round")
	workloadName := fs.String("workload", "", "builtin service topology for graph mode ('list' prints the names)")
	topologyPath := fs.String("topology", "", "YAML service topology file for graph mode")
	reqTraceIn := fs.String("reqtrace-in", "", "JSONL request trace to replay as external arrivals (graph mode)")
	reqTraceOut := fs.String("reqtrace-out", "", "write the realized external arrivals as a JSONL request trace (graph mode)")
	traceOut := fs.String("trace-out", "", "append a JSONL observability event per auction step to this file")
	loadAgents := fs.Int("load", 0, "run the platform load benchmark with this many multiplexed agents instead of the simulator (0 = off)")
	loadRounds := fs.Int("load-rounds", 20, "measured rounds for -load")
	loadPipeline := fs.Bool("load-pipeline", false, "use the pipelined round engine (overlap gather with settle) for -load")
	loadThink := fs.Duration("load-think", 2*time.Millisecond, "simulated per-session bid decision latency for -load")
	loadPerConn := fs.Int("load-conns", 0, "agents multiplexed per TCP session for -load (0 = default)")
	loadJSON := fs.Bool("load-json", false, "emit the -load result as JSON")
	var mechSpec core.MechanismSpec
	fs.Var(&mechSpec, "mechanism", "mechanism spec, e.g. 'posted-price:epsilon=0.1' or 'double-auction:overbook=1.25' (empty = ssam)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *loadAgents > 0 {
		return runLoad(loadFlags{
			agents: *loadAgents, rounds: *loadRounds, pipeline: *loadPipeline,
			think: *loadThink, perConn: *loadPerConn, jsonOut: *loadJSON,
		})
	}

	if *workloadName == "list" {
		fmt.Println(strings.Join(workload.BuiltinGraphNames(), "\n"))
		return nil
	}
	graph, err := workload.ResolveGraph(*workloadName, *topologyPath)
	if err != nil {
		return err
	}
	if graph == nil && (*reqTraceIn != "" || *reqTraceOut != "") {
		return fmt.Errorf("request traces need graph mode: pass -workload or -topology")
	}
	var reqTrace *workload.RequestTrace
	if *reqTraceIn != "" {
		reqTrace, err = workload.ReadRequestTraceFile(*reqTraceIn)
		if err != nil {
			return err
		}
	}

	dist, err := parseWorkDist(*workDist)
	if err != nil {
		return err
	}
	simCfg := sim.Config{Rounds: *rounds, Seed: *seed}
	bridgeCfg := sim.BridgeConfig{Seed: *seed}
	if graph != nil {
		simCfg.Graph = graph
		simCfg.Trace = reqTrace
		// Graph mode mirrors the experiments workload loop: cap demand at
		// the sellers' bid granularity and keep one-request tail backlogs
		// off the demand side.
		bridgeCfg.MaxUnits = 10
		bridgeCfg.NeedyQueue = 2
	} else {
		simCfg.Services = *services
		simCfg.WorkMean = *workMean
		simCfg.Work = dist
	}
	simulator, err := sim.New(simCfg)
	if err != nil {
		return fmt.Errorf("build simulator: %w", err)
	}
	bridge, err := sim.NewBridge(simulator, bridgeCfg)
	if err != nil {
		return fmt.Errorf("build bridge: %w", err)
	}
	var tracer obs.Tracer
	if *traceOut != "" {
		f, err := os.OpenFile(*traceOut, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("open trace log: %w", err)
		}
		jl := obs.NewJSONL(f)
		defer func() {
			if err := jl.Err(); err != nil {
				fmt.Fprintln(os.Stderr, "edgesim: trace log:", err)
			}
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "edgesim: close trace log:", err)
			}
		}()
		tracer = jl
	}
	auction := core.NewMSOA(core.MSOAConfig{
		DefaultCapacity:    *capacity,
		CapacityExemptFrom: sim.ReserveBidderID,
		Options:            core.Options{Parallelism: *parallelism, Tracer: tracer},
		Mechanism:          mechSpec,
	})

	topo := simulator.Topology()
	fmt.Printf("topology: %d edge clouds, %d users, backhaul connected: %v\n",
		len(topo.Clouds), len(topo.Users), topo.Connected())
	if graph != nil {
		fmt.Printf("service graph: %s (%d microservices, indicators from simulated load)\n\n",
			graph.Name, len(graph.Services))
	} else {
		fmt.Printf("services: %d (alternating delay-sensitive / delay-tolerant)\n\n", *services)
	}

	totalSLA := 0
	for r := 0; r < *rounds; r++ {
		report := simulator.RunRound()
		ar := bridge.Convert(report)
		sla := 0
		for _, v := range report.SLAViolations {
			sla += v
		}
		totalSLA += sla
		fmt.Printf("round %d: %d needy, %d bids, %d SLA misses",
			report.Round, ar.Round.Instance.NumNeedy(), len(ar.Round.Instance.Bids), sla)
		if ar.Round.Instance.NumNeedy() == 0 {
			fmt.Println(" — nothing to auction")
			continue
		}
		res := auction.RunRound(ar.Round)
		if res.Err != nil {
			fmt.Printf(" — infeasible: %v\n", res.Err)
			continue
		}
		delta, reserveUnits := ar.Transfers(res.Outcome.Winners)
		if graph != nil {
			// Close the loop: winners' grants (and sellers' drains) adjust
			// the next round's fair-share allocations.
			simulator.ApplyTransfers(delta)
		}
		fmt.Printf(" — %d winners, social cost %.2f, paid %.2f",
			len(res.Outcome.Winners), res.Outcome.SocialCost, res.Outcome.TotalPayment())
		if reserveUnits > 0 {
			fmt.Printf(" (platform reserve used)")
		}
		fmt.Println()
		if *verbose {
			printIndicators(report, ar)
		}
	}

	if *reqTraceOut != "" {
		if err := workload.WriteRequestTraceFile(*reqTraceOut, simulator.RequestTrace()); err != nil {
			return fmt.Errorf("write request trace: %w", err)
		}
		fmt.Printf("\nrequest trace written to %s\n", *reqTraceOut)
	}

	sum := auction.Summary()
	fmt.Printf("\nsummary: %d auctioned rounds, social cost %.2f, payments %.2f, %d winning bids, %d infeasible, %d SLA misses\n",
		sum.Rounds, sum.SocialCost, sum.TotalPayment, sum.WinningBids, sum.InfeasibleRounds, totalSLA)
	return nil
}

// parseWorkDist maps the CLI flag to a WorkDist.
func parseWorkDist(name string) (sim.WorkDist, error) {
	switch name {
	case "exponential", "":
		return sim.WorkExponential, nil
	case "pareto":
		return sim.WorkPareto, nil
	case "uniform":
		return sim.WorkUniform, nil
	case "deterministic":
		return sim.WorkDeterministic, nil
	default:
		return 0, fmt.Errorf("unknown work distribution %q", name)
	}
}

func printIndicators(report *sim.RoundReport, ar *sim.AuctionRound) {
	ids := make([]int, 0, len(report.Indicators))
	for id := range report.Indicators {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		in := report.Indicators[id]
		fmt.Printf("    ms-%-3d util=%.2f served=%d/%d queue=%d alloc=%.1f estimate=%.2f\n",
			id, in.ExecutionRate, in.ServedResponses, in.ReceivedResponses,
			report.QueueLengths[id], in.Allocated, ar.Estimates[id])
	}
}
