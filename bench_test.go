package edgeauction

// Benchmark harness: one benchmark per figure of the paper's evaluation
// (§V, Figures 3-6) plus the DESIGN.md ablations and micro-benchmarks of
// the mechanism hot paths. The figure benches run the same experiment
// drivers as cmd/repro in Quick mode so `go test -bench=.` stays tractable;
// run cmd/repro for the full paper-scale sweeps.

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"edgeauction/internal/core"
	"edgeauction/internal/experiments"
	"edgeauction/internal/optimal"
	"edgeauction/internal/sim"
	"edgeauction/internal/workload"
)

// -trial-parallelism sets the sweep-cell worker count for every figure
// bench (0 = GOMAXPROCS, 1 = serial). Rendered results are byte-identical
// at every level; only wall clock changes.
var trialParallelism = flag.Int("trial-parallelism", 0,
	"sweep-cell worker goroutines for figure benchmarks (0 = GOMAXPROCS, 1 = serial)")

func benchCfg(seed int64) experiments.Config {
	return experiments.Config{
		Seed: seed, Quick: true, OptTimeLimit: 300 * time.Millisecond,
		TrialParallelism: *trialParallelism,
	}
}

// BenchmarkFig3aSSAMRatio regenerates Figure 3(a): SSAM performance ratio
// vs number of microservices for J ∈ {1, 2}.
func BenchmarkFig3aSSAMRatio(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig3a(benchCfg(int64(i + 1)))
		if err != nil {
			b.Fatal(err)
		}
		if res.RatioByJ[1].Len() == 0 {
			b.Fatal("empty result")
		}
	}
}

// BenchmarkFig3bSSAMSocialCost regenerates Figure 3(b): SSAM social cost,
// payment, and optimal cost vs number of microservices for 100/200
// requests.
func BenchmarkFig3bSSAMSocialCost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig3b(benchCfg(int64(i + 1))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4aIndividualRationality regenerates Figure 4(a): per-winner
// payment vs actual price.
func BenchmarkFig4aIndividualRationality(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig4a(benchCfg(int64(i + 1)))
		if err != nil {
			b.Fatal(err)
		}
		if res.Violations != 0 {
			b.Fatalf("%d individual-rationality violations", res.Violations)
		}
	}
}

// BenchmarkFig4bRunningTime regenerates Figure 4(b): SSAM running time vs
// instance size.
func BenchmarkFig4bRunningTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig4b(benchCfg(int64(i + 1))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5aMSOARatio regenerates Figure 5(a): MSOA performance ratio
// vs number of microservices for 100/200 requests.
func BenchmarkFig5aMSOARatio(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig5a(benchCfg(int64(i + 1))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5bMSOAVariants regenerates Figure 5(b): the MSOA / MSOA-DA /
// MSOA-RC / MSOA-OA comparison.
func BenchmarkFig5bMSOAVariants(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig5b(benchCfg(int64(i + 1))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6aRoundsBids regenerates Figure 6(a): MSOA ratio vs rounds T
// and bids-per-bidder J.
func BenchmarkFig6aRoundsBids(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig6a(benchCfg(int64(i + 1))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6bMSOASocialCost regenerates Figure 6(b): MSOA social cost,
// payment, and optimal vs number of microservices.
func BenchmarkFig6bMSOASocialCost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig6b(benchCfg(int64(i + 1))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationScaledPrice measures the ψ price-augmentation ablation.
func BenchmarkAblationScaledPrice(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationScaledPrice(benchCfg(int64(i + 1))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationPayments measures the critical-value vs first-price
// payment ablation.
func BenchmarkAblationPayments(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationPayments(benchCfg(int64(i + 1))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationGreedyMetric measures the greedy-metric ablation.
func BenchmarkAblationGreedyMetric(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationGreedyMetric(benchCfg(int64(i + 1))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationFixedPrice measures the auction vs posted-price
// ablation.
func BenchmarkAblationFixedPrice(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationFixedPrice(benchCfg(int64(i + 1))); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Mechanism micro-benchmarks -----------------------------------------

func benchInstance(b *testing.B, bidders int) *core.Instance {
	b.Helper()
	return workload.Instance(workload.NewRand(1), workload.InstanceConfig{Bidders: bidders})
}

// BenchmarkSSAM25 measures one single-stage auction at the paper's default
// scale (25 microservices), payments included.
func BenchmarkSSAM25(b *testing.B) {
	ins := benchInstance(b, 25)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.SSAM(ins, core.Options{SkipCertificate: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSSAM75 measures one single-stage auction at the paper's largest
// scale (75 microservices).
func BenchmarkSSAM75(b *testing.B) {
	ins := benchInstance(b, 75)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.SSAM(ins, core.Options{SkipCertificate: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSSAMWithCertificate includes the primal-dual certificate
// bookkeeping (the default configuration).
func BenchmarkSSAMWithCertificate(b *testing.B) {
	ins := benchInstance(b, 25)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.SSAM(ins, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMSOARound measures one online round end to end, including
// scaled-price derivation and dual-state updates, at the paper's default
// scale (25 bidders) and at production-leaning scales. Parallelism is pinned
// to 1 so the numbers isolate the serial kernel (the dev container is
// 1-CPU; see results/BENCH_core.json for the recorded trajectory).
func BenchmarkMSOARound(b *testing.B) {
	for _, bidders := range []int{25, 75, 250} {
		b.Run(fmt.Sprintf("bidders=%d", bidders), benchMSOARoundN(bidders))
	}
}

func benchMSOARoundN(bidders int) func(b *testing.B) {
	return func(b *testing.B) {
		scn := workload.Online(workload.NewRand(1), workload.OnlineConfig{
			Rounds: 1, Stage: workload.InstanceConfig{Bidders: bidders},
		})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m := core.NewMSOA(scn.Config(core.Options{SkipCertificate: true, Parallelism: 1}))
			if res := m.RunRound(scn.TrueRounds[0]); res.Err != nil {
				b.Fatal(res.Err)
			}
		}
	}
}

// BenchmarkOfflineOptimal25 measures the exact branch-and-bound solve at
// the default scale — the denominator of every ratio figure.
func BenchmarkOfflineOptimal25(b *testing.B) {
	ins := benchInstance(b, 25)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := optimal.Solve(ins, optimal.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLPRelaxation25 measures one LP-relaxation solve (the
// branch-and-bound node bound).
func BenchmarkLPRelaxation25(b *testing.B) {
	ins := benchInstance(b, 25)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := optimal.LowerBound(ins); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatorRound measures one discrete-event simulation round
// with 30 microservices.
func BenchmarkSimulatorRound(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := sim.New(sim.Config{Services: 30, Rounds: 1, WorkMean: 600, Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		s.RunRound()
	}
}

// BenchmarkDemandEstimate measures one §III demand estimation.
func BenchmarkDemandEstimate(b *testing.B) {
	est, err := NewDemandEstimator(DemandConfig{})
	if err != nil {
		b.Fatal(err)
	}
	in := Indicators{
		ServedResponses: 40, ReceivedResponses: 50, NeededRate: 0.02,
		AchievedRate: 0.015, Allocated: 30, MaxAllocated: 50,
		ExecutionRate: 0.8, NeighborDensity: 3, Round: 5,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if est.Estimate(in) < 0 {
			b.Fatal("negative estimate")
		}
	}
}

// BenchmarkTraceRoundTrip measures trace encode+decode of a 10-round
// scenario.
func BenchmarkTraceRoundTrip(b *testing.B) {
	scn := workload.Online(workload.NewRand(1), workload.OnlineConfig{
		Rounds: 10, Stage: workload.InstanceConfig{Bidders: 25},
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := workload.WriteTrace(&buf, scn); err != nil {
			b.Fatal(err)
		}
		if _, err := workload.ReadTrace(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWinningStats regenerates the §V supplementary winning-bid
// statistics (percentage of winning tasks, price distribution).
func BenchmarkWinningStats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.WinningStats(benchCfg(int64(i + 1))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationCapacity measures the Theorem 7 capacity-slack study.
func BenchmarkAblationCapacity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationCapacity(benchCfg(int64(i + 1))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTruthfulnessSweep measures the empirical truthfulness probe.
func BenchmarkTruthfulnessSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.TruthfulnessSweep(benchCfg(int64(i + 1))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFederation measures the cross-cloud borrowing extension sweep.
func BenchmarkFederation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Federation(benchCfg(int64(i + 1))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationDemand measures the demand-estimation scheme ablation.
func BenchmarkAblationDemand(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.DemandAblation(benchCfg(int64(i + 1))); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Critical-value payment phase: serial vs parallel --------------------

// paymentBenchInstance builds an instance whose greedy selection yields
// exactly `winners` winners out of `bids` bids: each of `winners` needy
// microservices demands one unit, bid i covers needy i%winners with one
// unit, and every bid belongs to a distinct bidder so each counterfactual
// payment replay removes exactly one bid. This isolates the payment phase
// (O(winners × iterations × bids × covers)) from selection-shape noise.
func paymentBenchInstance(bids, winners int) *core.Instance {
	ins := &core.Instance{Demand: make([]int, winners)}
	for k := range ins.Demand {
		ins.Demand[k] = 1
	}
	ins.Bids = make([]core.Bid, bids)
	for i := range ins.Bids {
		ins.Bids[i] = core.Bid{
			Bidder: i + 1,
			Price:  10 + float64((i*7919)%100),
			Units:  1,
			Covers: []int{i % winners},
		}
	}
	return ins
}

// BenchmarkCriticalValuePayments measures the payment-phase hot path at
// ≥1000 bids across winner counts and Parallelism levels. Parallelism 1 is
// the serial baseline; 0 is GOMAXPROCS. On a single-core host all levels
// collapse to roughly the serial time — the speedup manifests on multicore.
func BenchmarkCriticalValuePayments(b *testing.B) {
	for _, winners := range []int{8, 32} {
		ins := paymentBenchInstance(1000, winners)
		for _, par := range []int{1, 2, 4, 0} {
			name := fmt.Sprintf("bids=1000/winners=%d/parallelism=%d", winners, par)
			b.Run(name, func(b *testing.B) {
				opts := core.Options{SkipCertificate: true, Parallelism: par}
				if par == 1 {
					// The serial SkipCertificate path allocates only O(1)
					// per call (result assembly: scaled slice, Outcome,
					// winner copy, payments map) — nothing per iteration
					// and nothing per winner. The bound is intentionally
					// below the winner count: a regression to per-winner
					// allocation (e.g. the certificate gains slice leaking
					// back into the selection loop) trips it immediately.
					allocs := testing.AllocsPerRun(10, func() {
						if _, err := core.SSAM(ins, opts); err != nil {
							b.Fatal(err)
						}
					})
					if allocs > 16 {
						b.Fatalf("serial SkipCertificate path allocates %v/op, want ≤ 16 (O(1), not O(winners))", allocs)
					}
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					out, err := core.SSAM(ins, opts)
					if err != nil {
						b.Fatal(err)
					}
					if len(out.Winners) != winners {
						b.Fatalf("got %d winners, want %d", len(out.Winners), winners)
					}
				}
			})
		}
	}
}

// BenchmarkFigureSweepTrialParallelism measures one representative figure
// sweep (Fig3a, Quick) end to end at several TrialParallelism levels.
// Level 1 is the serial baseline; 0 is GOMAXPROCS. On a single-core host
// all levels collapse to roughly the serial time — the fan-out speedup
// manifests on multicore.
func BenchmarkFigureSweepTrialParallelism(b *testing.B) {
	for _, par := range []int{1, 2, 4, 0} {
		b.Run(fmt.Sprintf("trial-parallelism=%d", par), func(b *testing.B) {
			cfg := experiments.Config{
				Seed: 1, Quick: true, OptTimeLimit: 300 * time.Millisecond,
				TrialParallelism: par,
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := experiments.Fig3a(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if res.RatioByJ[1].Len() == 0 {
					b.Fatal("empty result")
				}
			}
		})
	}
}

// --- Core kernel micro-benchmarks (make bench-core) ----------------------
//
// The SSAM selection/payment kernel is the mechanism's asymptotic hot path
// (one counterfactual greedy replay per winner). The grid below pins its
// serial cost at several (bids, needy, covers-density) scales; `make
// bench-core` replays the grid through testing.Benchmark and records the
// numbers in results/BENCH_core.json, so kernel PRs carry a committed
// before/after trajectory instead of a claim.

var (
	benchCoreJSON = flag.String("bench-core-json", "",
		"write the core kernel micro-benchmark grid (JSON) to this file (used by `make bench-core`)")
	benchCoreLabel = flag.String("bench-core-label", "optimized",
		"label recorded for this bench-core run (e.g. seed-baseline, optimized)")
	benchCoreProcs = flag.String("bench-core-procs", "",
		"comma-separated GOMAXPROCS levels to sweep the grid over (empty = current level only)")
)

type coreBenchSpec struct {
	name string
	run  func(b *testing.B)
}

// kernelBenchInstance draws a deterministic instance with the requested
// shape: `bidders` each submit 2 alternative bids (so ~2·bidders bids plus
// the reserve ladder), `needy` demands, cover sets of size [1, coverHi].
func kernelBenchInstance(bidders, needy, coverHi int) *core.Instance {
	return workload.Instance(workload.NewRand(1), workload.InstanceConfig{
		Bidders: bidders, BidsPerBidder: 2, Needy: needy, CoverLo: 1, CoverHi: coverHi,
	})
}

func benchSSAM(ins *core.Instance, opts core.Options) func(b *testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			out, err := core.SSAM(ins, opts)
			if err != nil {
				b.Fatal(err)
			}
			if len(out.Winners) == 0 {
				b.Fatal("no winners")
			}
		}
	}
}

// coreBenchSpecs is the fixed grid recorded by bench-core. Select uses
// FirstPrice payments to isolate pure winner selection; Payments uses the
// paper's CriticalValue rule (selection + one counterfactual replay per
// winner). The serial specs pin Parallelism to 1 — the recorded trajectory
// tracks the serial kernel — while the Par* specs run the same shapes with
// Parallelism/TrialParallelism 0 (GOMAXPROCS) so the bench-core GOMAXPROCS
// sweep can demonstrate the parallel payment-replay and trial fan-out
// speedups level by level instead of asserting them.
func coreBenchSpecs() []coreBenchSpec {
	selOpts := core.Options{SkipCertificate: true, Payment: core.FirstPrice, Parallelism: 1}
	payOpts := core.Options{SkipCertificate: true, Parallelism: 1}
	parOpts := core.Options{SkipCertificate: true, Parallelism: 0}
	return []coreBenchSpec{
		{"SSAMSelect/bids=1000/needy=50/cover=4", benchSSAM(kernelBenchInstance(500, 50, 4), selOpts)},
		{"SSAMSelect/bids=2000/needy=50/cover=4", benchSSAM(kernelBenchInstance(1000, 50, 4), selOpts)},
		{"SSAMSelect/bids=4000/needy=100/cover=6", benchSSAM(kernelBenchInstance(2000, 100, 6), selOpts)},
		{"SSAMPayments/bids=1000/needy=50/cover=4", benchSSAM(kernelBenchInstance(500, 50, 4), payOpts)},
		{"SSAMPayments/bids=2000/needy=50/cover=4", benchSSAM(kernelBenchInstance(1000, 50, 4), payOpts)},
		{"SSAMPayments/bids=1000/needy=100/cover=8", benchSSAM(kernelBenchInstance(500, 100, 8), payOpts)},
		{"MSOARound/bidders=25", benchMSOARoundN(25)},
		{"MSOARound/bidders=250", benchMSOARoundN(250)},
		{"ParSSAMPayments/bids=2000/needy=50/cover=4", benchSSAM(kernelBenchInstance(1000, 50, 4), parOpts)},
		{"ParMSOARound/bidders=250", benchMSOARoundPar(250)},
		{"ParTrialFanout/fig3a-quick", benchTrialFanout()},
	}
}

// benchMSOARoundPar is benchMSOARoundN with the payment phase fanned out
// across GOMAXPROCS workers (Parallelism 0) — the multicore counterpart of
// the serial MSOARound specs.
func benchMSOARoundPar(bidders int) func(b *testing.B) {
	return func(b *testing.B) {
		scn := workload.Online(workload.NewRand(1), workload.OnlineConfig{
			Rounds: 1, Stage: workload.InstanceConfig{Bidders: bidders},
		})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m := core.NewMSOA(scn.Config(core.Options{SkipCertificate: true, Parallelism: 0}))
			if res := m.RunRound(scn.TrueRounds[0]); res.Err != nil {
				b.Fatal(res.Err)
			}
		}
	}
}

// benchTrialFanout runs one representative figure sweep (Fig3a, Quick) with
// the (point, trial) cells fanned out across GOMAXPROCS workers
// (TrialParallelism 0) — the experiment-harness dimension of the sweep.
func benchTrialFanout() func(b *testing.B) {
	return func(b *testing.B) {
		cfg := experiments.Config{
			Seed: 1, Quick: true, OptTimeLimit: 300 * time.Millisecond,
			TrialParallelism: 0,
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := experiments.Fig3a(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if res.RatioByJ[1].Len() == 0 {
				b.Fatal("empty result")
			}
		}
	}
}

func runCoreBenchGroup(b *testing.B, prefix string) {
	for _, spec := range coreBenchSpecs() {
		if strings.HasPrefix(spec.name, prefix) {
			b.Run(strings.TrimPrefix(spec.name, prefix), spec.run)
		}
	}
}

// BenchmarkSSAMSelect measures pure greedy winner selection (payments
// trivialized to first-price) at several instance shapes. Before timing, it
// asserts the selection path has zero steady-state allocations: the pooled
// kernel (CSR view, lazy-rescore heap, bidder-group bans) must not
// allocate per iteration or per instance size — only the O(1) result
// assembly (scaled slice, Outcome, winner copy, payments map) may, and that
// is bounded by the same ≤16 constant the payment path asserts.
func BenchmarkSSAMSelect(b *testing.B) {
	ins := kernelBenchInstance(1000, 50, 4)
	opts := core.Options{SkipCertificate: true, Payment: core.FirstPrice, Parallelism: 1}
	if _, err := core.SSAM(ins, opts); err != nil { // warm the pool
		b.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := core.SSAM(ins, opts); err != nil {
			b.Fatal(err)
		}
	})
	if allocs > 16 {
		b.Fatalf("selection path allocates %v/op at 2000 bids, want ≤ 16 (zero steady-state allocs, O(1) result assembly only)", allocs)
	}
	runCoreBenchGroup(b, "SSAMSelect/")
}

// BenchmarkSSAMPayments measures selection plus the critical-value payment
// phase — the full serial hot path — at several instance shapes.
func BenchmarkSSAMPayments(b *testing.B) { runCoreBenchGroup(b, "SSAMPayments/") }

type coreBenchResult struct {
	Name        string  `json:"name"`
	N           int     `json:"n"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

type coreBenchRun struct {
	Label      string            `json:"label"`
	GoMaxProcs int               `json:"gomaxprocs"`
	GoVersion  string            `json:"go_version"`
	Benchmarks []coreBenchResult `json:"benchmarks"`
}

// benchCoreProcLevels parses -bench-core-procs into the GOMAXPROCS levels
// the grid is recorded at; empty means the current level only.
func benchCoreProcLevels(t *testing.T) []int {
	if *benchCoreProcs == "" {
		return []int{runtime.GOMAXPROCS(0)}
	}
	var levels []int
	for _, field := range strings.Split(*benchCoreProcs, ",") {
		var p int
		if _, err := fmt.Sscanf(strings.TrimSpace(field), "%d", &p); err != nil || p < 1 {
			t.Fatalf("bad -bench-core-procs entry %q (want positive integers, e.g. 1,2,4,8)", field)
		}
		levels = append(levels, p)
	}
	return levels
}

// TestBenchCoreJSON replays the coreBenchSpecs grid through
// testing.Benchmark — once per -bench-core-procs GOMAXPROCS level — and
// records the results under -bench-core-label in the -bench-core-json file,
// appending to (or replacing the same (label, GOMAXPROCS) entry in) any runs
// already recorded there. Skipped unless -bench-core-json is set; `make
// bench-core` / `make bench-core-sweep` are the entry points.
func TestBenchCoreJSON(t *testing.T) {
	if *benchCoreJSON == "" {
		t.Skip("enable with -bench-core-json <file> (see `make bench-core`)")
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	var recorded []coreBenchRun
	for _, procs := range benchCoreProcLevels(t) {
		runtime.GOMAXPROCS(procs)
		run := coreBenchRun{
			Label:      *benchCoreLabel,
			GoMaxProcs: procs,
			GoVersion:  runtime.Version(),
		}
		for _, spec := range coreBenchSpecs() {
			r := testing.Benchmark(spec.run)
			if r.N == 0 {
				t.Fatalf("benchmark %s did not run", spec.name)
			}
			run.Benchmarks = append(run.Benchmarks, coreBenchResult{
				Name:        spec.name,
				N:           r.N,
				NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
				AllocsPerOp: r.AllocsPerOp(),
				BytesPerOp:  r.AllocedBytesPerOp(),
			})
			t.Logf("GOMAXPROCS=%d %-45s %s %s", procs, spec.name, r.String(), r.MemString())
		}
		recorded = append(recorded, run)
	}
	runtime.GOMAXPROCS(prev)

	var runs []coreBenchRun
	if data, err := os.ReadFile(*benchCoreJSON); err == nil {
		if err := json.Unmarshal(data, &runs); err != nil {
			t.Fatalf("existing %s is not a bench-core file: %v", *benchCoreJSON, err)
		}
	}
	for _, run := range recorded {
		replaced := false
		for i := range runs {
			if runs[i].Label == run.Label && runs[i].GoMaxProcs == run.GoMaxProcs {
				runs[i], replaced = run, true
			}
		}
		if !replaced {
			runs = append(runs, run)
		}
	}
	data, err := json.MarshalIndent(runs, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(*benchCoreJSON, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

var (
	benchGuard = flag.Bool("bench-guard", false,
		"compare the nil-tracer kernel hot paths against the recorded bench-core baseline (used by `make bench-guard`)")
	benchGuardTolerance = flag.Float64("bench-guard-tolerance", 0.05,
		"allowed ns/op regression fraction for the bench guard")
)

// guardBaseline picks the committed "optimized" run whose recorded
// GOMAXPROCS matches the current level — like-for-like comparison — falling
// back to the nearest recorded level (preferring lower, i.e. a stricter
// serial baseline) with a logged note when no exact match exists.
func guardBaseline(t *testing.T, runs []coreBenchRun) (map[string]coreBenchResult, int) {
	current := runtime.GOMAXPROCS(0)
	bestLevel, bestDist := -1, math.MaxInt
	for _, run := range runs {
		if run.Label != "optimized" {
			continue
		}
		dist := run.GoMaxProcs - current
		if dist < 0 {
			dist = -dist
		}
		// Prefer exact, then nearest; among equidistant levels prefer the
		// lower one (recorded with less parallelism — a stricter bar).
		if dist < bestDist || (dist == bestDist && run.GoMaxProcs < bestLevel) {
			bestLevel, bestDist = run.GoMaxProcs, dist
		}
	}
	if bestLevel < 0 {
		t.Fatal(`results/BENCH_core.json has no "optimized" run`)
	}
	if bestLevel != current {
		t.Logf("note: no optimized baseline at GOMAXPROCS=%d; comparing against the nearest recorded level %d",
			current, bestLevel)
	}
	base := map[string]coreBenchResult{}
	for _, run := range runs {
		if run.Label != "optimized" || run.GoMaxProcs != bestLevel {
			continue
		}
		for _, r := range run.Benchmarks {
			base[r.Name] = r
		}
	}
	return base, bestLevel
}

// TestBenchCoreGuard enforces the zero-cost-when-disabled contract of the
// observability layer and the kernel's no-regression bar: with no tracer
// configured, the SSAMSelect, SSAMPayments, and MSOARound hot paths must
// stay within -bench-guard-tolerance of the committed "optimized" baseline
// in results/BENCH_core.json — compared like-for-like at the recorded
// GOMAXPROCS level — and must not allocate more per op. Each spec takes the
// best of three runs so a scheduler hiccup cannot fail the guard; only
// regressions fail (being faster than the recording is fine). Skipped
// unless -bench-guard is set; `make bench-guard` is the entry point.
func TestBenchCoreGuard(t *testing.T) {
	if !*benchGuard {
		t.Skip("enable with -bench-guard (see `make bench-guard`)")
	}
	data, err := os.ReadFile("results/BENCH_core.json")
	if err != nil {
		t.Fatalf("no committed baseline: %v (run `make bench-core` first)", err)
	}
	var runs []coreBenchRun
	if err := json.Unmarshal(data, &runs); err != nil {
		t.Fatal(err)
	}
	base, level := guardBaseline(t, runs)

	for _, spec := range coreBenchSpecs() {
		if !strings.HasPrefix(spec.name, "SSAMSelect/") &&
			!strings.HasPrefix(spec.name, "SSAMPayments/") &&
			!strings.HasPrefix(spec.name, "MSOARound/") {
			continue
		}
		want, ok := base[spec.name]
		if !ok {
			t.Errorf("bench-guard: baseline (GOMAXPROCS=%d) has no entry for %s — rerun `make bench-core`",
				level, spec.name)
			continue
		}
		bestNs := math.Inf(1)
		var bestAllocs int64
		for rep := 0; rep < 3; rep++ {
			r := testing.Benchmark(spec.run)
			if r.N == 0 {
				t.Fatalf("benchmark %s did not run", spec.name)
			}
			if ns := float64(r.T.Nanoseconds()) / float64(r.N); ns < bestNs {
				bestNs, bestAllocs = ns, r.AllocsPerOp()
			}
		}
		delta := 100 * (bestNs/want.NsPerOp - 1)
		t.Logf("GOMAXPROCS=%d %-45s %12.0f ns/op (baseline %12.0f, %+5.1f%%), %d allocs/op (baseline %d)",
			level, spec.name, bestNs, want.NsPerOp, delta, bestAllocs, want.AllocsPerOp)
		if bestNs > want.NsPerOp*(1+*benchGuardTolerance) {
			t.Errorf("bench-guard regression: benchmark %s at GOMAXPROCS=%d runs %.0f ns/op, %+.1f%% over the %.0f ns/op baseline (tolerance %.0f%%)",
				spec.name, level, bestNs, delta, want.NsPerOp, 100**benchGuardTolerance)
		}
		if bestAllocs > want.AllocsPerOp {
			t.Errorf("bench-guard regression: benchmark %s at GOMAXPROCS=%d allocates %d/op, +%d over the %d/op baseline (no extra allocs allowed)",
				spec.name, level, bestAllocs, bestAllocs-want.AllocsPerOp, want.AllocsPerOp)
		}
	}
}

var (
	benchScalingJSON = flag.String("bench-scaling-json", "",
		"bench-core JSON file (with a GOMAXPROCS sweep) to verify multicore scaling against (used by `make bench-scaling`)")
	benchScalingMin = flag.Float64("bench-scaling-min", 2.0,
		"required speedup of the Par* specs at -bench-scaling-procs vs GOMAXPROCS=1")
	benchScalingProcs = flag.Int("bench-scaling-procs", 4,
		"GOMAXPROCS level at which the Par* specs must reach -bench-scaling-min")
)

// TestBenchScaling verifies the multicore claims against a recorded
// GOMAXPROCS sweep: the parallel payment-replay fan-out (ParSSAMPayments)
// and the experiment-harness trial fan-out (ParTrialFanout) must be at
// least -bench-scaling-min times faster at GOMAXPROCS=-bench-scaling-procs
// than at GOMAXPROCS=1. ParMSOARound is reported but not gated: one online
// round amortizes ψ updates and instance assembly that do not fan out, so
// its parallel fraction is smaller by design. Skipped unless
// -bench-scaling-json is set; `make bench-scaling` (run on a multicore
// host — the CI multicore job) is the entry point.
func TestBenchScaling(t *testing.T) {
	if *benchScalingJSON == "" {
		t.Skip("enable with -bench-scaling-json <file> (see `make bench-scaling`)")
	}
	data, err := os.ReadFile(*benchScalingJSON)
	if err != nil {
		t.Fatalf("no sweep recording: %v (run `make bench-core-sweep` first)", err)
	}
	var runs []coreBenchRun
	if err := json.Unmarshal(data, &runs); err != nil {
		t.Fatal(err)
	}
	byLevel := map[int]map[string]coreBenchResult{}
	for _, run := range runs {
		if run.Label != "optimized" {
			continue
		}
		m := map[string]coreBenchResult{}
		for _, r := range run.Benchmarks {
			m[r.Name] = r
		}
		byLevel[run.GoMaxProcs] = m
	}
	serial, ok := byLevel[1]
	if !ok {
		t.Fatalf("%s has no optimized run at GOMAXPROCS=1 — record the sweep with `make bench-core-sweep`", *benchScalingJSON)
	}
	parallel, ok := byLevel[*benchScalingProcs]
	if !ok {
		t.Fatalf("%s has no optimized run at GOMAXPROCS=%d — record the sweep with `make bench-core-sweep`",
			*benchScalingJSON, *benchScalingProcs)
	}
	for _, spec := range coreBenchSpecs() {
		if !strings.HasPrefix(spec.name, "Par") {
			continue
		}
		s, okS := serial[spec.name]
		p, okP := parallel[spec.name]
		if !okS || !okP {
			t.Errorf("sweep recording has no entry for %s at both GOMAXPROCS=1 and %d", spec.name, *benchScalingProcs)
			continue
		}
		speedup := s.NsPerOp / p.NsPerOp
		gated := spec.name != "ParMSOARound/bidders=250"
		t.Logf("%-45s %.2fx speedup at GOMAXPROCS=%d (%.0f -> %.0f ns/op)%s",
			spec.name, speedup, *benchScalingProcs, s.NsPerOp, p.NsPerOp,
			map[bool]string{true: "", false: " [reported, not gated]"}[gated])
		if gated && speedup < *benchScalingMin {
			t.Errorf("benchmark %s at GOMAXPROCS=%d is only %.2fx faster than GOMAXPROCS=1 (%.0f -> %.0f ns/op), want >= %.1fx",
				spec.name, *benchScalingProcs, speedup, s.NsPerOp, p.NsPerOp, *benchScalingMin)
		}
	}
}

// TestPaymentsDeterministicAcrossParallelism asserts that the parallel
// payment phase is bit-identical (==, not within-epsilon) to the serial
// path at every Parallelism level: each winner's counterfactual replay
// depends only on the immutable instance and scaled prices, and results
// are assembled into the Payments map serially.
func TestPaymentsDeterministicAcrossParallelism(t *testing.T) {
	instances := []*core.Instance{
		paymentBenchInstance(200, 8),
		paymentBenchInstance(1000, 16),
		workload.Instance(workload.NewRand(1), workload.InstanceConfig{Bidders: 400, BidsPerBidder: 2}),
	}
	for n, ins := range instances {
		serial, err := core.SSAM(ins, core.Options{SkipCertificate: true, Parallelism: 1})
		if err != nil {
			t.Fatalf("instance %d serial: %v", n, err)
		}
		for _, par := range []int{2, 3, 4, 8, 0} {
			out, err := core.SSAM(ins, core.Options{SkipCertificate: true, Parallelism: par})
			if err != nil {
				t.Fatalf("instance %d parallelism %d: %v", n, par, err)
			}
			if len(out.Winners) != len(serial.Winners) {
				t.Fatalf("instance %d parallelism %d: %d winners, serial has %d",
					n, par, len(out.Winners), len(serial.Winners))
			}
			for i, w := range serial.Winners {
				if out.Winners[i] != w {
					t.Fatalf("instance %d parallelism %d: winner[%d] = %d, serial %d",
						n, par, i, out.Winners[i], w)
				}
			}
			if len(out.Payments) != len(serial.Payments) {
				t.Fatalf("instance %d parallelism %d: %d payments, serial has %d",
					n, par, len(out.Payments), len(serial.Payments))
			}
			for w, p := range serial.Payments {
				if got := out.Payments[w]; got != p {
					t.Fatalf("instance %d parallelism %d: payment[%d] = %v, serial %v (not bit-identical)",
						n, par, w, got, p)
				}
			}
		}
	}
}

// TestConcurrentSSAMSharedInstance runs several auctions concurrently on
// one shared instance with a parallel payment phase, exercising the pooled
// scratch state under the race detector; every run must match the serial
// baseline exactly.
func TestConcurrentSSAMSharedInstance(t *testing.T) {
	ins := paymentBenchInstance(500, 12)
	serial, err := core.SSAM(ins, core.Options{SkipCertificate: true, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	const runs = 8
	var wg sync.WaitGroup
	errs := make([]error, runs)
	for g := 0; g < runs; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			out, err := core.SSAM(ins, core.Options{SkipCertificate: true, Parallelism: 4})
			if err != nil {
				errs[g] = err
				return
			}
			for w, p := range serial.Payments {
				if out.Payments[w] != p {
					errs[g] = fmt.Errorf("run %d: payment[%d] = %v, serial %v", g, w, out.Payments[w], p)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}
