GO ?= go
GOFMT ?= gofmt

.PHONY: check build test vet fmtcheck race bench benchcheck tracecheck warmcheck servecheck shardcheck

# check is the repo gate: vet, formatting, build everything, run the full
# test suite once under the race detector (the telemetry layer and the
# feasibility cache are concurrency-safe by contract; every test the CI
# legs below select runs here too), audit the golden trace with the
# replay checker, and gate the hot-path benchmarks against the committed
# baseline (skip: BENCHCHECK=0).
check: vet fmtcheck build race tracecheck benchcheck

# fmtcheck fails when any Go file is not gofmt-formatted (gofmt -l output
# is the offending file list).
fmtcheck:
	@unformatted=$$($(GOFMT) -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "fmtcheck: gofmt needed on:"; \
		echo "$$unformatted"; \
		exit 1; \
	else \
		echo "fmtcheck: ok"; \
	fi

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# bench runs every benchmark and also writes a machine-readable summary
# (ns/op, B/op, allocs/op per benchmark) for regression tracking.
bench:
	$(GO) test -bench=. -benchmem ./... | $(GO) run ./cmd/benchjson -out BENCH.json

# benchcheck reruns the hot-path benchmarks (solver entry points and
# per-activation feasibility probes) and gates them against the committed
# BENCH.json baseline: fail past +15% ns/op or any allocs/op increase.
# Set BENCHCHECK=0 to skip (e.g. on noisy shared machines).
BENCHCHECK ?= 1
benchcheck:
	@if [ "$(BENCHCHECK)" = "0" ]; then \
		echo "benchcheck: skipped (BENCHCHECK=0)"; \
	else \
		$(GO) test -run='^$$' -bench='HeuristicSolve|OptimalSolve|OptimalWarmStart|ResourceFeasible|SimulateEDF|FeasibleSorted' -benchmem \
			./internal/sched/ ./internal/exact/ ./internal/core/ | $(GO) run ./cmd/benchjson -out= -compare BENCH.json; \
	fi

# tracecheck replays the golden event trace through the auditor: the
# recorded run must satisfy every resource-manager invariant.
tracecheck:
	$(GO) run ./cmd/tracetool check internal/sim/testdata/events.golden.jsonl

# warmcheck, shardcheck and servecheck rerun slices of the race suite as
# the CI legs that vary the environment: warmcheck under GOMAXPROCS=1 and
# 4, shardcheck and servecheck isolated so a noisy main gate cannot mask
# an interleaving- or timing-dependent failure.
#
# warmcheck proves warm-start solving is a speed knob, not a behaviour
# knob: the exact solver's warm-vs-cold differential and its warm-state
# bookkeeping, the feasibility of Algorithm 1 runs with pre-booked jobs,
# the fingerprint-churn property behind the cross-activation cache, the
# end-to-end grid/trace identity checks, and the recorded per-solve
# reference of the warm bound under sim.Run (node counts and truncation
# included; -race runs one of its node limits, so the second line runs
# all three without it). It honours whatever GOMAXPROCS the environment
# sets.
warmcheck:
	$(GO) test -race -run 'WarmStart|Extend|FingerprintChurn' \
		./internal/sched/ ./internal/core/ ./internal/exact/ ./internal/experiments/ ./internal/sim/
	$(GO) test -run 'WarmStartBoundRecorded' ./internal/sim/

# shardcheck pins the scale-out admission layer: the 1-shard sharded
# engine is byte-identical to the unsharded path, singleton batch epochs
# are byte-identical to one-by-one admission, sharded batched runs are
# deterministic despite concurrent per-shard solves, next-wake/late-advance
# behave across shard boundaries, the indexed candidate scan matches the
# plain heuristic bit-for-bit, and the platform spec/partition/projection
# plumbing underneath holds.
shardcheck:
	$(GO) test -race -run 'Sharded|BatchEpoch|IndexedHeuristic|LoadIndex|Partition|ParseSpec|Project' \
		./internal/sim/ ./internal/engine/ ./internal/core/ ./internal/platform/ ./internal/sched/ ./internal/task/

# servecheck drives the wall-clock serving mode end to end: the
# sim/server differential (byte-identical results and telemetry for the
# same trace through both drivers of the shared engine), graceful-shutdown
# draining against a fast wall clock, concurrent HTTP intake under the
# serialized-activation contract, the obs plane mounted on the serving
# listener, and the API validation fences.
servecheck:
	$(GO) test -race -run 'Serve' ./internal/serve/
