package chaos

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"edgeauction/internal/core"
	"edgeauction/internal/obs"
	"edgeauction/internal/platform"
)

// crashTestScenario is a small, tight-capacity scenario whose ψ state is
// non-trivial by mid-run, so recovery has real dual state to reproduce.
func crashTestScenario(name string) *Scenario {
	return New(name).
		WithSeed(19).
		WithRounds(14).
		WithDeadline(40).
		WithAgents(4, 30).
		WithDemand(DemandSpec{NeedyLo: 2, NeedyHi: 3, DemandLo: 1, DemandHi: 2, SpikeEvery: 5, SpikeFactor: 2})
}

// TestCrashPointMatrix kills the platform at each scripted crash site in
// turn and asserts the recovered run is byte-identical to an
// uninterrupted one: same final ψ/χ state hash, same OnlineSummary, same
// WAL bytes.
func TestCrashPointMatrix(t *testing.T) {
	t.Parallel()
	points := []string{platform.CrashMidGather, platform.CrashPreAnnounce, platform.CrashPostAnnounce}
	for _, point := range points {
		point := point
		t.Run(point, func(t *testing.T) {
			t.Parallel()
			sc := crashTestScenario("matrix-"+point).CrashPlatformAt(7, point)
			res, err := RunCompare(CompareConfig{Scenario: sc, Dir: t.TempDir()})
			if err != nil {
				t.Fatalf("RunCompare: %v", err)
			}
			if res.Variant != "crashed" {
				t.Errorf("variant %q, want crashed", res.Variant)
			}
			if res.Crashes != 1 || res.Recoveries != 1 {
				t.Errorf("crashes=%d recoveries=%d, want 1/1", res.Crashes, res.Recoveries)
			}
			assertMatch(t, res)
		})
	}
}

// TestCrashFinalRound kills the platform in the very last round after the
// WAL append: the recovered state alone (no further rounds) must match
// the baseline.
func TestCrashFinalRound(t *testing.T) {
	t.Parallel()
	sc := crashTestScenario("final").CrashPlatformAt(14, platform.CrashPostAnnounce)
	res, err := RunCompare(CompareConfig{Scenario: sc, Dir: t.TempDir()})
	if err != nil {
		t.Fatalf("RunCompare: %v", err)
	}
	assertMatch(t, res)
}

// TestCrashWithSnapshots checkpoints every 4 rounds, so the second
// crash's recovery replays only a WAL suffix — and still lands on the
// exact state.
func TestCrashWithSnapshots(t *testing.T) {
	t.Parallel()
	sc := crashTestScenario("snap").
		CrashPlatformAt(6, platform.CrashPreAnnounce).
		CrashPlatformAt(11, platform.CrashMidGather)
	res, err := RunCompare(CompareConfig{Scenario: sc, Dir: t.TempDir(), SnapshotEvery: 4})
	if err != nil {
		t.Fatalf("RunCompare: %v", err)
	}
	if res.Snapshots == 0 {
		t.Fatalf("pass wrote no snapshots")
	}
	// The round-11 crash recovers from a snapshot at round 8 or later, so
	// it must NOT have replayed the whole 10-record prefix.
	if res.Replayed >= 10+5 {
		t.Errorf("replayed %d records; snapshots should have cut the suffix", res.Replayed)
	}
	assertMatch(t, res)
}

func assertMatch(t *testing.T, res *CompareResult) {
	t.Helper()
	if !res.WALMatch {
		t.Errorf("WALs differ between baseline and %s pass", res.Variant)
	}
	if res.BaselineHash != res.VariantHash {
		t.Errorf("state hash diverged: baseline %s, %s %s", res.BaselineHash, res.Variant, res.VariantHash)
	}
	if res.BaselineSummary == nil || res.VariantSummary == nil {
		t.Fatalf("missing summary: baseline %v, %s %v", res.BaselineSummary, res.Variant, res.VariantSummary)
	}
	if *res.BaselineSummary != *res.VariantSummary {
		t.Errorf("summary diverged: baseline %+v, %s %+v", *res.BaselineSummary, res.Variant, *res.VariantSummary)
	}
	if !res.Match {
		t.Errorf("overall Match=false: %+v", res)
	}
}

// TestRecoverTornTail crash-cuts a WAL mid-record and asserts recovery
// uses the complete prefix, reports Truncated, and resumes at the right
// round.
func TestRecoverTornTail(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	sc := crashTestScenario("torn")
	walPath := filepath.Join(dir, "run.wal")
	if _, err := RunCompare(CompareConfig{Scenario: sc, Dir: dir}); err != nil {
		t.Fatalf("RunCompare: %v", err)
	}
	// Use the baseline WAL as the donor log.
	data, err := os.ReadFile(filepath.Join(dir, "baseline.wal"))
	if err != nil {
		t.Fatalf("read WAL: %v", err)
	}
	recs, err := platform.ReadAudit(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("ReadAudit on intact WAL: %v", err)
	}
	if len(recs) != sc.Rounds {
		t.Fatalf("intact WAL has %d records, want %d", len(recs), sc.Rounds)
	}
	// Cut the final record in half, as a crash mid-write would.
	cut := data[:len(data)-40]
	if err := os.WriteFile(walPath, cut, 0o644); err != nil {
		t.Fatalf("write torn WAL: %v", err)
	}
	rec, err := platform.Recover(walPath, "", core.MSOAConfig{Options: core.Options{Parallelism: 1}})
	if err != nil {
		t.Fatalf("Recover on torn WAL: %v", err)
	}
	if !rec.Truncated {
		t.Errorf("recovery did not flag the torn tail")
	}
	if rec.Replayed != sc.Rounds-1 {
		t.Errorf("replayed %d records, want %d (complete prefix)", rec.Replayed, sc.Rounds-1)
	}
	if rec.NextRound != sc.Rounds {
		t.Errorf("NextRound %d, want %d (the torn round reruns)", rec.NextRound, sc.Rounds)
	}
	// The torn record must have been recovered as ErrTruncated, not a
	// hard failure, by the underlying reader too.
	if _, rerr := platform.ReadAudit(bytes.NewReader(cut)); !errors.Is(rerr, obs.ErrTruncated) {
		t.Errorf("ReadAudit on torn WAL: %v, want ErrTruncated", rerr)
	}
}

// TestRecoverEmptyAndMissingWAL: recovery from nothing is a fresh start.
func TestRecoverEmptyAndMissingWAL(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	cfg := core.MSOAConfig{Options: core.Options{Parallelism: 1}}

	rec, err := platform.Recover(filepath.Join(dir, "missing.wal"), "", cfg)
	if err != nil {
		t.Fatalf("Recover with missing WAL: %v", err)
	}
	if rec.NextRound != 1 || rec.Replayed != 0 || rec.Truncated {
		t.Errorf("missing WAL: %+v, want fresh start at round 1", rec)
	}

	empty := filepath.Join(dir, "empty.wal")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	rec, err = platform.Recover(empty, filepath.Join(dir, "nosnaps"), cfg)
	if err != nil {
		t.Fatalf("Recover with empty WAL: %v", err)
	}
	if rec.NextRound != 1 || rec.Replayed != 0 || rec.Truncated {
		t.Errorf("empty WAL: %+v, want fresh start at round 1", rec)
	}
}

// TestCrashScenarioValidation rejects out-of-range rounds and unknown
// crash points.
func TestCrashScenarioValidation(t *testing.T) {
	t.Parallel()
	if err := crashTestScenario("bad-round").CrashPlatformAt(99, platform.CrashMidGather).Validate(); err == nil {
		t.Errorf("crash round beyond scenario length validated")
	}
	if err := crashTestScenario("bad-point").CrashPlatformAt(3, "pre-flush").Validate(); err == nil {
		t.Errorf("unknown crash point validated")
	}
	if err := crashTestScenario("ok").CrashPlatformAt(3, platform.CrashPostAnnounce).Validate(); err != nil {
		t.Errorf("valid crash scenario rejected: %v", err)
	}
}

// TestPipelineCompareMatches runs a shortened pipeline scenario through
// the comparison harness and requires a full match: identical WAL bytes,
// state hash, and summary. This is the in-tree version of
// `chaos -scenario pipeline` (the soak gate runs the full 120 rounds).
func TestPipelineCompareMatches(t *testing.T) {
	t.Parallel()
	sc := pipelineScenario()
	sc.Rounds = 40
	dir := t.TempDir()
	res, err := RunCompare(CompareConfig{Scenario: sc, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if res.Variant != "pipelined" {
		t.Errorf("variant %q, want pipelined", res.Variant)
	}
	if res.Crashes != 0 || res.Recoveries != 0 || res.Replayed != 0 || res.Snapshots != 0 {
		t.Errorf("pipelined run has crash counters %+v, want zeros", res)
	}
	assertMatch(t, res)
	if res.BaselineSummary == nil || res.BaselineSummary.Rounds != sc.Rounds {
		t.Errorf("baseline summary %+v, want %d rounds", res.BaselineSummary, sc.Rounds)
	}
	for _, name := range []string{"baseline.wal", "pipelined.wal"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("comparison left no %s: %v", name, err)
		}
	}
}

// TestPipelineCompareRepeatable re-runs the comparison and requires the
// final state hash to be stable across independent harness runs. This
// is the regression test for the map-iteration-order bug in
// Outcome.TotalPayment: summing payments in randomized map order
// perturbed the summary's last ULP, so byte-compared runs of the very
// same scenario disagreed with each other.
func TestPipelineCompareRepeatable(t *testing.T) {
	t.Parallel()
	sc := pipelineScenario()
	sc.Rounds = 30
	var hash string
	for i := 0; i < 3; i++ {
		res, err := RunCompare(CompareConfig{Scenario: sc, Dir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Match {
			t.Fatalf("run %d diverged: %+v", i, res)
		}
		if hash == "" {
			hash = res.BaselineHash
		} else if res.BaselineHash != hash {
			t.Fatalf("run %d state hash %s, want %s (nondeterministic harness)", i, res.BaselineHash, hash)
		}
	}
}

// TestCompareVerdict is the negative control for the comparison gate: a
// verdict that always said "match" would pass every test above, so each
// compared artifact must be able to fail it on its own.
func TestCompareVerdict(t *testing.T) {
	t.Parallel()
	clean := func() *passResult {
		return &passResult{
			wal:     []byte(`{"kind":"edgeauction-audit","t":1}` + "\n"),
			hash:    "9f2c",
			summary: &core.OnlineSummary{Rounds: 1, SocialCost: 12.5, TotalPayment: 14, WinningBids: 2},
		}
	}
	cases := []struct {
		name            string
		mutate          func(p *passResult)
		walMatch, match bool
	}{
		{"identical", func(*passResult) {}, true, true},
		{"flipped WAL byte", func(p *passResult) { p.wal[len(p.wal)/2] ^= 1 }, false, false},
		{"differing hash", func(p *passResult) { p.hash = "9f2d" }, true, false},
		{"differing summary field", func(p *passResult) { p.summary.TotalPayment += 1e-9 }, true, false},
		{"missing summary", func(p *passResult) { p.summary = nil }, true, false},
	}
	for _, tc := range cases {
		variant := clean()
		tc.mutate(variant)
		walMatch, match := verdict(clean(), variant)
		if walMatch != tc.walMatch || match != tc.match {
			t.Errorf("%s: verdict (WAL %v, overall %v), want (%v, %v)", tc.name, walMatch, match, tc.walMatch, tc.match)
		}
	}
}
