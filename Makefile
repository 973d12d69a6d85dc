GO ?= go

.PHONY: all help build vet lint test bench-test race fuzz-short chaos spec-chaos explain-check verify bench bench-scale bench-all bench-parallel profile figures clean

all: verify

help:
	@echo "Targets:"
	@echo "  make verify        - full tier-1 gate: build, vet, lint, test, race, fuzz-short, explain-check"
	@echo "  make build         - compile every package"
	@echo "  make vet           - go vet"
	@echo "  make lint          - run schedlint -strict (7 checks + suppression-hygiene audit)"
	@echo "  make test          - unit tests"
	@echo "  make bench-test    - the benchmark module's own tests (bench/ is a nested module)"
	@echo "  make race          - unit tests under the race detector"
	@echo "  make fuzz-short    - one short iteration of each fuzz target"
	@echo "  make chaos         - fault-injection suite under -race + the chaos matrix"
	@echo "  make spec-chaos    - speculation suite under -race + a speculated CLI run"
	@echo "  make explain-check - journal byte-determinism (workers 1 vs 8) + schedexplain smoke"
	@echo "  make bench         - per-scheduler benches -> BENCH_schedulers.json"
	@echo "  make bench-scale   - task-decade scaling sweep -> BENCH_scale.json"
	@echo "  make bench-all     - all benchmarks, one iteration"
	@echo "  make bench-parallel- workers=1 vs workers=N scaling benches"
	@echo "  make profile       - CPU/heap profiles + Chrome trace of one run"
	@echo "  make figures       - regenerate the paper figures (quick mode)"

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# schedlint (cmd/schedlint) statically enforces the determinism
# contract: no map-order-dependent writes, no wall clock or global
# rand in solver packages, no scheduling-order merges, no float
# accumulation in map order, no order-tainted commits (interprocedural
# dataflow), no lock-order cycles. -strict additionally audits the
# allow annotations themselves. See DESIGN.md §8 and §11.
lint:
	$(GO) run ./cmd/schedlint -dir . -strict

test:
	$(GO) test ./...

# bench/ is its own Go module, so the root `go test ./...` skips it.
bench-test:
	cd bench && $(GO) test ./...

# The parallel solver core (mip portfolio, concurrent hypergraph
# recursion, experiment fan-out) makes the race detector part of the
# repository's tier-1 verification, not an optional extra.
race:
	$(GO) test -race ./...

# One short round of each fuzz target: replays the committed corpus
# plus a few seconds of new inputs, enough to catch invariant
# regressions without turning verify into a fuzzing campaign.
fuzz-short:
	$(GO) test -run='^$$' -fuzz=FuzzPartitionKWay -fuzztime=5s ./internal/hypergraph/
	$(GO) test -run='^$$' -fuzz=FuzzPartitionBINW -fuzztime=5s ./internal/hypergraph/
	$(GO) test -run='^$$' -fuzz=FuzzTimelineReserve -fuzztime=5s ./internal/gantt/
	$(GO) test -run='^$$' -fuzz=FuzzSlotMonotone -fuzztime=5s ./internal/gantt/
	$(GO) test -run='^$$' -fuzz=FuzzFaultPlan -fuzztime=5s ./internal/core/
	$(GO) test -run='^$$' -fuzz=FuzzStateOps -fuzztime=5s ./internal/core/
	$(GO) test -run='^$$' -fuzz=FuzzMinMinEquivalence -fuzztime=5s ./internal/sched/minmin/
	$(GO) test -run='^$$' -fuzz=FuzzJDPEquivalence -fuzztime=5s ./internal/sched/jdp/

# The fault-injection suite under the race detector plus the full
# chaos experiment matrix: every deterministic-recovery property
# (identical seeds => identical schedules at any worker count,
# fault-free parity, degraded-run termination) exercised end to end.
chaos:
	$(GO) test -race -run 'Chaos|Fault|Crash|Degrade|Preempt' ./internal/core/ ./internal/faults/ ./internal/gantt/ ./internal/experiments/ -v
	$(GO) run ./cmd/paperfigs -fig chaos -quick

# The speculative-execution suite under the race detector: policy
# parsing/thresholds, the first-finisher-wins race outcomes, rescue
# and double-requeue invariants, and journal byte-determinism with
# speculation armed (the chaos matrix above sweeps the ±spec arms of
# every scheduler; this adds the focused property tests plus one
# speculated CLI run end to end, whose Gantt and Chrome trace are
# projected from the journal's fault, burn and spec events).
spec-chaos:
	$(GO) test -race -run 'Spec|Straggler|Journal' ./internal/core/ ./internal/spec/ ./internal/faults/ ./internal/experiments/ -v
	$(GO) run ./cmd/batchsched -app image -tasks 40 -sched minmin \
		-faults harsh,mttf=100 -speculate single-fork:0.86 \
		-obs-gantt -obs-trace spec_trace.json

# Decision-journal determinism from the CLI down: the same seeded
# figure at -workers 1 and -workers 8 must write byte-identical
# provenance journals, and schedexplain must answer over the result
# (summary + critical path). The quick chaos matrix gets the same
# check, so the fault, retry, burn and speculation events are covered
# too. CI's `journal` job runs this and archives both journals as
# artifacts.
explain-check:
	$(GO) run ./cmd/paperfigs -fig 3 -quick -skip-ip -workers 1 -journal journal_w1.jsonl > /dev/null
	$(GO) run ./cmd/paperfigs -fig 3 -quick -skip-ip -workers 8 -journal journal_w8.jsonl > /dev/null
	cmp journal_w1.jsonl journal_w8.jsonl
	$(GO) run ./cmd/schedexplain -journal journal_w1.jsonl
	$(GO) run ./cmd/schedexplain -journal journal_w1.jsonl -critical > /dev/null
	$(GO) run ./cmd/paperfigs -fig chaos -quick -skip-ip -workers 1 -journal chaos_journal_w1.jsonl > /dev/null
	$(GO) run ./cmd/paperfigs -fig chaos -quick -skip-ip -workers 8 -journal chaos_journal_w8.jsonl > /dev/null
	cmp chaos_journal_w1.jsonl chaos_journal_w8.jsonl
	$(GO) run ./cmd/schedexplain -journal chaos_journal_w1.jsonl
	$(GO) run ./cmd/schedexplain -journal chaos_journal_w1.jsonl -critical > /dev/null

verify: build vet lint test race fuzz-short explain-check

# One timed pipeline run per scheduling scheme, parsed into
# BENCH_schedulers.json (per-scheme ns/op, allocs/op, simulated
# makespan) so CI can archive the performance trajectory; the fault/
# speculation arms land in BENCH_faults.json with the wasted_compute_s
# and spec_wins columns alongside.
bench:
	$(GO) test -run='^$$' -bench='^BenchmarkSchedulers$$' -benchmem -benchtime=5x \
		| $(GO) run ./cmd/benchjson -o BENCH_schedulers.json
	$(GO) test -run='^$$' -bench='^BenchmarkFaultRecovery$$' -benchmem -benchtime=5x \
		| $(GO) run ./cmd/benchjson -o BENCH_faults.json

# The DESIGN §14 scaling sweep: task decades 100 -> 100k over the
# IMAGE workload under MinMin and JobDataPresent — full-pipeline arms
# (BenchmarkScale) and plan-only optimized-vs-naive arms
# (BenchmarkScalePlan) — parsed into BENCH_scale.json. One iteration
# per tier: the 100k JDP pipeline takes minutes and the naive 10k arms
# tens of seconds, so -benchtime=1x is the point, not a shortcut.
bench-scale:
	$(GO) test -run='^$$' -bench='^BenchmarkScale(Plan)?$$' -benchmem -benchtime=1x -timeout=120m \
		| $(GO) run ./cmd/benchjson -o BENCH_scale.json

bench-all:
	$(GO) test -bench=. -benchmem -benchtime=1x

# Just the workers=1 vs workers=N scaling benches.
bench-parallel:
	$(GO) test -bench='BenchmarkMIPSolve|BenchmarkKWayPartition|BenchmarkFig3Workers' -benchmem

# Profile one representative run: pprof CPU + heap, Go runtime trace,
# and the Chrome trace of the pipeline itself.
profile:
	$(GO) run ./cmd/batchsched -app image -tasks 200 -sched bipartition \
		-cpuprofile cpu.pprof -memprofile mem.pprof -trace runtime.trace \
		-obs-trace obs_trace.json -obs-metrics obs_metrics.json
	@echo "wrote cpu.pprof mem.pprof runtime.trace obs_trace.json obs_metrics.json"

figures:
	$(GO) run ./cmd/paperfigs -quick

clean:
	$(GO) clean ./...
