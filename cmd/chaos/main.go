// Command chaos runs deterministic chaos scenarios against the real
// auction platform with the online mechanism-invariant auditor attached.
//
// Usage:
//
//	chaos -scenario churn                      # run a builtin scenario
//	chaos -scenario testdata/foo.json          # run a JSON scenario file
//	chaos -scenario churn -audit-out run.jsonl # capture the deterministic audit log
//	chaos -scenario churn -break-payments      # prove the auditor is live
//	chaos -scenario crash                      # kill/recover the platform, byte-compare
//	chaos -scenario pipeline                   # serial vs pipelined engine, byte-compare
//	chaos -list                                # list builtin scenarios
//	chaos -scenario churn -print               # dump the scenario as JSON
//
// The audit log is deterministic: two runs of the same scenario and seed
// are byte-identical, which is what `make soak-quick` asserts with cmp.
// Crash scenarios (soak-crash) and pipeline scenarios (soak-pipeline)
// extend the same idea to the durable record: one comparison harness
// clears the scenario through an uninterrupted serial baseline and
// through the recovered — respectively, overlapped — variant, writing
// baseline.wal and crashed.wal or pipelined.wal into -crash-dir, and the
// variant must match the baseline byte-for-byte.
// Exit status: 0 on a clean run, 1 on operational errors, 2 when the
// auditor found invariant violations or a comparison run diverged.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"

	"edgeauction/internal/chaos"
	"edgeauction/internal/core"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("chaos", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		scenario      = fs.String("scenario", "", "builtin scenario name or path to a JSON scenario file")
		list          = fs.Bool("list", false, "list builtin scenarios and exit")
		printScenario = fs.Bool("print", false, "print the scenario JSON (defaults applied) and exit")
		seed          = fs.Int64("seed", 0, "override the scenario seed")
		rounds        = fs.Int("rounds", 0, "override the scenario round count")
		auditOut      = fs.String("audit-out", "", "write the deterministic audit JSONL here ('-' for stdout)")
		traceOut      = fs.String("trace-out", "", "write the raw (timestamped) obs trace JSONL here")
		dumpDir       = fs.String("dump-dir", "", "write per-violation evidence dumps into this directory")
		breakPayments = fs.Bool("break-payments", false, "corrupt every award by 10% so the auditor must object")
		maxViolations = fs.Int("max-violations", 0, "stop after N violations (0 = 1; negative = collect all)")
		quiet         = fs.Bool("quiet", false, "suppress progress logging")
		crashDir      = fs.String("crash-dir", "", "working dir for platform-crash and pipeline comparison runs (default: a temp dir)")
		snapshotEvery = fs.Int("snapshot-every", 10, "checkpoint the crashed pass every N rounds (platform-crash runs; 0 disables)")
		fsync         = fs.Bool("fsync", false, "fsync the WAL on every append (platform-crash and pipeline comparison runs)")
		mechanism     core.MechanismSpec
	)
	fs.Var(&mechanism, "mechanism", "override the scenario mechanism spec, e.g. 'posted-price' or 'double-auction:overbook=1.25'")
	if err := fs.Parse(args); err != nil {
		return 1
	}

	if *list {
		for _, name := range chaos.BuiltinNames() {
			fmt.Fprintln(stdout, name)
		}
		return 0
	}
	if *scenario == "" {
		fmt.Fprintln(stderr, "chaos: -scenario is required (try -list)")
		return 1
	}

	sc, err := loadScenario(*scenario)
	if err != nil {
		fmt.Fprintf(stderr, "chaos: %v\n", err)
		return 1
	}
	if *seed != 0 {
		sc.Seed = *seed
	}
	if *rounds != 0 {
		sc.Rounds = *rounds
	}
	if !mechanism.IsZero() {
		sc.Mechanism = &mechanism
	}

	if *printScenario {
		data, err := sc.JSON()
		if err != nil {
			fmt.Fprintf(stderr, "chaos: %v\n", err)
			return 1
		}
		fmt.Fprintln(stdout, string(data))
		return 0
	}

	if len(sc.PlatformCrashes) > 0 || sc.Pipelined {
		return runCompare(sc, *crashDir, *snapshotEvery, *fsync, *quiet, stdout, stderr)
	}

	cfg := chaos.Config{
		Scenario:      sc,
		DumpDir:       *dumpDir,
		BreakPayments: *breakPayments,
		MaxViolations: *maxViolations,
	}
	if !*quiet {
		cfg.Logger = log.New(stderr, "", 0)
	}
	for _, out := range []struct {
		path string
		dst  *io.Writer
	}{
		{*auditOut, &cfg.AuditLog},
		{*traceOut, &cfg.TraceLog},
	} {
		if out.path == "" {
			continue
		}
		if out.path == "-" {
			*out.dst = stdout
			continue
		}
		f, err := os.Create(out.path)
		if err != nil {
			fmt.Fprintf(stderr, "chaos: %v\n", err)
			return 1
		}
		defer f.Close()
		*out.dst = f
	}

	res, err := chaos.Run(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "chaos: %v\n", err)
		return 1
	}

	fmt.Fprintf(stdout, "scenario %s seed %d: %d rounds audited (%d infeasible, %d federated), %d checks, %d violations\n",
		res.Scenario, res.Seed, res.Rounds, res.Infeasible, res.FedRounds, res.Checks, len(res.Violations))
	if res.Summary != nil {
		fmt.Fprintf(stdout, "mechanism: social cost %.2f, payments %.2f, %d winning bids\n",
			res.Summary.SocialCost, res.Summary.TotalPayment, res.Summary.WinningBids)
	}
	if len(res.Violations) > 0 {
		for _, v := range res.Violations {
			fmt.Fprintf(stdout, "VIOLATION %s\n", v)
		}
		for _, d := range res.Dumps {
			fmt.Fprintf(stdout, "evidence: %s\n", d)
		}
		fmt.Fprintf(stdout, "repro: go run ./cmd/chaos -scenario %s -seed %d\n", res.Scenario, res.Seed)
		return 2
	}
	return 0
}

// runCompare runs a comparison scenario: an uninterrupted serial
// baseline and the variant the scenario selects — the platform killed at
// each scripted crash point and recovered from snapshot + WAL-suffix
// replay, or the pipelined round engine — compared byte-for-byte. Exit 2
// on any divergence.
func runCompare(sc *chaos.Scenario, dir string, snapshotEvery int, fsync, quiet bool, stdout, stderr io.Writer) int {
	if dir == "" {
		tmp, err := os.MkdirTemp("", "chaos-compare-")
		if err != nil {
			fmt.Fprintf(stderr, "chaos: %v\n", err)
			return 1
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}
	cfg := chaos.CompareConfig{Scenario: sc, Dir: dir, SnapshotEvery: snapshotEvery, Fsync: fsync}
	if !quiet {
		cfg.Logger = log.New(stderr, "", 0)
	}
	res, err := chaos.RunCompare(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "chaos: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "scenario %s seed %d: %d rounds, baseline vs %s: %d platform crashes, %d recoveries (%d records replayed, %d snapshots)\n",
		res.Scenario, res.Seed, res.Rounds, res.Variant, res.Crashes, res.Recoveries, res.Replayed, res.Snapshots)
	fmt.Fprintf(stdout, "state: baseline %s, %s %s, WAL match %v\n",
		short(res.BaselineHash), res.Variant, short(res.VariantHash), res.WALMatch)
	if !res.Match {
		fmt.Fprintf(stdout, "DIVERGENCE: %s run does not match the uninterrupted serial baseline\n", res.Variant)
		fmt.Fprintf(stdout, "repro: go run ./cmd/chaos -scenario %s -seed %d -crash-dir <dir>\n", res.Scenario, res.Seed)
		return 2
	}
	fmt.Fprintf(stdout, "%s run is byte-identical to the uninterrupted serial baseline\n", res.Variant)
	return 0
}

func short(h string) string {
	if len(h) > 12 {
		return h[:12]
	}
	return h
}

// loadScenario resolves a builtin name or a JSON file path.
func loadScenario(ref string) (*chaos.Scenario, error) {
	if strings.ContainsAny(ref, "./\\") {
		return chaos.LoadFile(ref)
	}
	return chaos.Builtin(ref)
}
