package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// tinyScenario is a minimal JSON scenario for exercising the CLI without
// paying the builtin scenarios' round counts.
const tinyScenario = `{
  "name": "tiny",
  "seed": 3,
  "rounds": 5,
  "bid_deadline_ms": 20,
  "agents": [
    {"id": 1}, {"id": 2}, {"id": 3}, {"id": 4}
  ],
  "demand": {"needy_lo": 2, "needy_hi": 2, "demand_lo": 1, "demand_hi": 1}
}`

func writeTiny(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "tiny.json")
	if err := os.WriteFile(path, []byte(tinyScenario), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestListPrintsBuiltins(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-list"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	for _, want := range []string{"churn", "faults", "capacity", "federation"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("list output missing %q: %s", want, out.String())
		}
	}
}

func TestPrintAppliesOverrides(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-scenario", "churn", "-seed", "99", "-rounds", "7", "-print"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	for _, want := range []string{`"seed": 99`, `"rounds": 7`} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("print output missing %s: %s", want, out.String())
		}
	}
}

func TestCleanRunExitsZero(t *testing.T) {
	path := writeTiny(t)
	audit := filepath.Join(t.TempDir(), "audit.jsonl")
	var out, errOut bytes.Buffer
	code := run([]string{"-scenario", path, "-quiet", "-audit-out", audit}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s%s", code, out.String(), errOut.String())
	}
	if !strings.Contains(out.String(), "0 violations") {
		t.Errorf("summary missing violation count: %s", out.String())
	}
	data, err := os.ReadFile(audit)
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(data, []byte("\n")); n != 5 {
		t.Errorf("audit log has %d lines, want 5", n)
	}
}

func TestBrokenPaymentsExitTwo(t *testing.T) {
	path := writeTiny(t)
	dir := t.TempDir()
	var out, errOut bytes.Buffer
	code := run([]string{"-scenario", path, "-quiet", "-break-payments", "-dump-dir", dir}, &out, &errOut)
	if code != 2 {
		t.Fatalf("exit %d, want 2: %s%s", code, out.String(), errOut.String())
	}
	if !strings.Contains(out.String(), "VIOLATION") || !strings.Contains(out.String(), "repro:") {
		t.Errorf("violation report incomplete: %s", out.String())
	}
	dumps, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(dumps) == 0 {
		t.Errorf("no evidence dump written (err %v)", err)
	}
}

func TestBadInvocations(t *testing.T) {
	for _, args := range [][]string{
		{},                                    // no scenario
		{"-scenario", "nonesuch"},             // unknown builtin
		{"-scenario", "/does/not/exist.json"}, // unreadable file
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 1 {
			t.Errorf("args %v: exit %d, want 1", args, code)
		}
	}
}

// TestCompareScenariosExitZero drives both comparison variants through
// the CLI's single compare path: each exits 0 and leaves the baseline WAL
// next to its variant's WAL in -crash-dir.
func TestCompareScenariosExitZero(t *testing.T) {
	for _, tc := range []struct{ variant, field string }{
		{"crashed", `"platform_crashes": [{"round": 3, "point": "pre-announce"}]`},
		{"pipelined", `"pipelined": true`},
	} {
		scenario := strings.TrimSuffix(tinyScenario, "}") + ", " + tc.field + "}"
		path := filepath.Join(t.TempDir(), tc.variant+".json")
		if err := os.WriteFile(path, []byte(scenario), 0o644); err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		var out, errOut bytes.Buffer
		if code := run([]string{"-scenario", path, "-quiet", "-crash-dir", dir}, &out, &errOut); code != 0 {
			t.Fatalf("%s: exit %d: %s%s", tc.variant, code, out.String(), errOut.String())
		}
		if !strings.Contains(out.String(), tc.variant+" run is byte-identical") {
			t.Errorf("%s: verdict line missing: %s", tc.variant, out.String())
		}
		for _, name := range []string{"baseline.wal", tc.variant + ".wal"} {
			if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
				t.Errorf("%s: %v", tc.variant, err)
			}
		}
	}
}
