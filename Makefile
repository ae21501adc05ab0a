GO ?= go

.PHONY: all build test check cover fuzz soak soak-quick soak-crash soak-pipeline soak-workload bench bench-core bench-core-sweep bench-guard bench-load bench-scaling bench-repro repro arena

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# check is the per-PR verification gate: formatting and static analysis,
# the facade-coverage rule (every internal type reachable from the public
# surface must be re-exported) and the map-order float rule (no float
# accumulation inside a range over a map) — both run first and by name
# so a violation fails loudly before the long race run — the full test
# suite under the race detector (the platform tests exercise real TCP
# concurrency, and the parallel payment phase and sweep runner exercise
# their scratch state), a bounded run of the reference/optimized SSAM
# differential fuzzer (its seed corpus also runs as plain tests, so the
# kernel equivalence is a standing gate), then a quick bench-repro smoke
# run proving the end-to-end figure pipeline and its wall-clock report
# still work.
check:
	@fmt=$$(gofmt -l .); if [ -n "$$fmt" ]; then \
		echo "gofmt needed on:"; echo "$$fmt"; exit 1; fi
	$(GO) vet ./...
	$(GO) test -run '^TestFacadeCoverage$$' -count=1 .
	$(GO) test -run '^TestNoFloatAccumulationInMapRange$$' -count=1 .
	$(GO) test -race ./...
	$(GO) test -run '^$$' -fuzz '^FuzzSSAMDifferential$$' -fuzztime 10s \
		./internal/core
	$(GO) run ./cmd/repro -fig all -quick -opt-time 300ms \
		-bench-json /tmp/BENCH_repro_smoke.json >/dev/null
	$(MAKE) arena
	$(MAKE) cover

# arena is the mechanism head-to-head smoke gate: race SSAM, the
# posted-price mechanism, and the futures+spot double auction on the same
# seeded quick workload through the pluggable Mechanism API, writing the
# result JSON to /tmp. The full-scale table is committed as
# results/ARENA.json (regenerate with `go run ./cmd/repro -fig arena
# -arena-json results/ARENA.json`).
arena:
	$(GO) run ./cmd/repro -fig arena -quick -seed 1 \
		-arena-json /tmp/ARENA_smoke.json >/dev/null
	@echo "mechanism arena smoke OK (/tmp/ARENA_smoke.json)"

# cover enforces the statement-coverage floor on the mechanism-critical
# packages: the auction kernel, the TCP platform, the federation, and the
# topology-driven workload engine with its discrete-event simulator.
COVER_FLOOR ?= 70
cover:
	@$(GO) test -count=1 -cover \
		./internal/core ./internal/platform ./internal/federation \
		./internal/workload ./internal/sim \
		| awk -v floor=$(COVER_FLOOR) ' \
		/coverage:/ { \
			pct = 0 + substr($$5, 1, length($$5)-1); \
			printf "%-40s %5.1f%% (floor %d%%)\n", $$2, pct, floor; \
			if (pct < floor) bad = 1; \
		} \
		END { if (bad) { print "coverage below floor"; exit 1 } }'

# fuzz gives each fuzzer a bounded randomized run on top of its committed
# seed corpus (the corpus itself already runs as plain tests). Wired into
# CI as a non-blocking job: a new crasher is a finding, not a regression.
FUZZTIME ?= 30s
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzSSAMDifferential$$' -fuzztime $(FUZZTIME) \
		./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzReadAudit$$' -fuzztime $(FUZZTIME) \
		./internal/platform
	$(GO) test -run '^$$' -fuzz '^FuzzRecvInto$$' -fuzztime $(FUZZTIME) \
		./internal/platform
	$(GO) test -run '^$$' -fuzz '^FuzzReadTrace$$' -fuzztime $(FUZZTIME) \
		./internal/workload
	$(GO) test -run '^$$' -fuzz '^FuzzReadInstance$$' -fuzztime $(FUZZTIME) \
		./internal/workload

# soak-quick is the chaos gate: the 250-round churn+fault scenario must
# (a) produce a byte-identical audit log across two runs of the same seed
# — the scenario engine and auditor are deterministic by construction —
# and (b) report zero invariant violations; then a deliberately broken
# payment rule must make the auditor object (non-zero exit).
soak-quick:
	$(GO) build -o /tmp/edgeauction-chaos ./cmd/chaos
	/tmp/edgeauction-chaos -scenario churn -quiet -audit-out /tmp/edgeauction-soak-a.jsonl
	/tmp/edgeauction-chaos -scenario churn -quiet -audit-out /tmp/edgeauction-soak-b.jsonl
	cmp /tmp/edgeauction-soak-a.jsonl /tmp/edgeauction-soak-b.jsonl
	@if /tmp/edgeauction-chaos -scenario churn -quiet -break-payments >/dev/null; then \
		echo "auditor failed to catch the broken payment rule"; exit 1; \
	else echo "broken payment rule caught as expected"; fi

# soak-crash is the durability gate: the builtin crash scenario runs
# through the comparison harness (chaos.RunCompare), whose crashed pass
# kills the platform at every scripted crash point (mid-gather,
# pre-announce, post-announce) and recovers each time from snapshot +
# WAL-suffix replay. It exits non-zero unless that pass is byte-identical
# to the uninterrupted serial baseline (same WAL bytes, same ψ-state hash,
# same OnlineSummary). Comparison rounds close on their last bid, not on
# a deadline, so the verdict does not depend on scheduling.
soak-crash:
	$(GO) build -o /tmp/edgeauction-chaos ./cmd/chaos
	/tmp/edgeauction-chaos -scenario crash -quiet

# soak-pipeline is the overlap-determinism gate: the same comparison
# harness clears the builtin pipeline scenario's 120 rounds once through
# the serial RunRound baseline and once through the pipelined round
# engine (settle t overlapping gather t+1), and exits non-zero unless the
# two passes are byte-identical (same WAL bytes, same ψ-state hash, same
# OnlineSummary). As in soak-crash, rounds close on their last bid.
soak-pipeline:
	$(GO) build -o /tmp/edgeauction-chaos ./cmd/chaos
	/tmp/edgeauction-chaos -scenario pipeline -quiet

# soak-workload is the topology-driven demand gate: the builtin overload
# scenario drives the platform with demand precomputed from the
# cascading-overload service graph simulated at 3x work (not i.i.d.
# draws), under light churn, with the shadow auditor replaying every
# round. Two runs of the same seed must be audit-clean and byte-identical
# — the demand schedule is a pure function of the scenario seed.
soak-workload:
	$(GO) build -o /tmp/edgeauction-chaos ./cmd/chaos
	/tmp/edgeauction-chaos -scenario overload -quiet -audit-out /tmp/edgeauction-soak-wl-a.jsonl
	/tmp/edgeauction-chaos -scenario overload -quiet -audit-out /tmp/edgeauction-soak-wl-b.jsonl
	cmp /tmp/edgeauction-soak-wl-a.jsonl /tmp/edgeauction-soak-wl-b.jsonl

# soak runs every builtin chaos scenario, including a long churn run.
soak: soak-quick soak-crash soak-pipeline soak-workload
	/tmp/edgeauction-chaos -scenario churn -rounds 1000 -quiet
	/tmp/edgeauction-chaos -scenario faults -quiet
	/tmp/edgeauction-chaos -scenario capacity -quiet
	/tmp/edgeauction-chaos -scenario federation -quiet

bench:
	$(GO) test -bench=. -benchmem

# bench-core records the SSAM selection/payment kernel micro-benchmark grid
# (bids × needy × covers-density; serial Parallelism=1 specs plus Par*
# GOMAXPROCS-fan-out specs) into results/BENCH_core.json, appending a
# labelled run so before/after kernel numbers live side by side. Use
# BENCH_CORE_LABEL=seed-baseline (or any label) to name the run, and
# BENCH_CORE_PROCS=1,2,4,8 to sweep GOMAXPROCS levels (each level is a
# separate (label, gomaxprocs) entry in the JSON).
BENCH_CORE_LABEL ?= optimized
BENCH_CORE_JSON ?= results/BENCH_core.json
BENCH_CORE_PROCS ?=
bench-core:
	$(GO) test -run '^TestBenchCoreJSON$$' -count=1 -timeout 60m \
		-bench-core-json $(BENCH_CORE_JSON) \
		-bench-core-label $(BENCH_CORE_LABEL) \
		-bench-core-procs '$(BENCH_CORE_PROCS)' .

# bench-core-sweep records the grid at GOMAXPROCS ∈ {1,2,4,8} — the
# multicore characterization. On a multicore host the Par* specs speed up
# with the level; bench-scaling turns that into a gate.
bench-core-sweep:
	$(MAKE) bench-core BENCH_CORE_PROCS=1,2,4,8

# bench-load records the end-to-end platform load benchmark into
# results/BENCH_load.json: an in-process server driven by the multiplexed
# loadgen fleet at each BENCH_LOAD_AGENTS size, serial RunRound vs
# pipelined RunPipelined, alternating passes with the median pass per mode
# (single-box throughput is too noisy for one-shot comparisons). The run
# itself asserts the pipelined engine beats serial at >=10k agents and
# that allocation per agent-round stays under the pooled-path ceiling.
# BENCH_LOAD_AGENTS=1000,10000,100000 records the 100k point too (needs
# `ulimit -n` headroom for ~500 extra sockets and a few extra minutes).
BENCH_LOAD_JSON ?= results/BENCH_load.json
BENCH_LOAD_AGENTS ?= 1000,10000
BENCH_LOAD_PASSES ?= 3
bench-load:
	$(GO) test -run '^TestBenchLoadJSON$$' -count=1 -v -timeout 60m \
		-bench-load-json $(BENCH_LOAD_JSON) \
		-bench-load-agents '$(BENCH_LOAD_AGENTS)' \
		-bench-load-passes $(BENCH_LOAD_PASSES) .

# bench-guard re-runs the nil-tracer SSAMSelect/SSAMPayments/MSOARound hot
# paths and fails if they regress more than BENCH_GUARD_TOL (fraction)
# against the committed "optimized" run in results/BENCH_core.json at the
# matching GOMAXPROCS level (nearest recorded level when there is no exact
# match), or allocate more per op. This is both the observability layer's
# zero-cost-when-disabled gate and the kernel's no-regression gate.
# It then replays the load-benchmark grid against the committed
# results/BENCH_load.json: neither engine may shed more than
# BENCH_LOAD_GUARD_TOL of its recorded rounds/sec, and the pipelined
# engine must still beat serial at >=10k agents.
BENCH_GUARD_TOL ?= 0.05
BENCH_LOAD_GUARD_TOL ?= 0.10
bench-guard:
	$(GO) test -run '^TestBenchCoreGuard$$' -count=1 -v \
		-bench-guard -bench-guard-tolerance $(BENCH_GUARD_TOL) .
	$(GO) test -run '^TestBenchLoadGuard$$' -count=1 -v -timeout 60m \
		-bench-load-guard \
		-bench-load-guard-tolerance $(BENCH_LOAD_GUARD_TOL) .

# bench-scaling verifies the multicore claims against a recorded GOMAXPROCS
# sweep: the parallel payment fan-out and the experiment-harness trial
# fan-out must be ≥ BENCH_SCALING_MIN× faster at GOMAXPROCS=4 than at 1.
# Run `make bench-core-sweep` on a multicore host first (the CI multicore
# job does both and uploads the JSON as an artifact).
BENCH_SCALING_JSON ?= results/BENCH_core.json
BENCH_SCALING_MIN ?= 2.0
bench-scaling:
	$(GO) test -run '^TestBenchScaling$$' -count=1 -v \
		-bench-scaling-json $(BENCH_SCALING_JSON) \
		-bench-scaling-min $(BENCH_SCALING_MIN) .

# bench-repro records the end-to-end wall clock of every figure at paper
# scale into results/BENCH_repro.json (per-figure millis, seed, trial
# parallelism, GOMAXPROCS). Use TRIAL_PARALLELISM=1 for a serial baseline.
TRIAL_PARALLELISM ?= 0
bench-repro:
	$(GO) run ./cmd/repro -fig all -trial-parallelism $(TRIAL_PARALLELISM) \
		-bench-json results/BENCH_repro.json

repro:
	$(GO) run ./cmd/repro -fig all -quick
