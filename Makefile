GO ?= go
GOFMT ?= gofmt

.PHONY: check build test vet fmtcheck race bench benchcheck tracecheck faultcheck obscheck explaincheck warmcheck servecheck shardcheck

# check is the repo gate: vet, formatting, build everything, run the full
# test suite under the race detector (the telemetry layer and the
# feasibility cache are concurrency-safe by contract — internal/exact's
# differential and budget-exhaustion tests ride under race here), audit
# the golden trace with the replay checker, gate the hot-path benchmarks
# against the committed baseline (skip: BENCHCHECK=0), smoke the
# fault-injection resilience path (skip: FAULTCHECK=0), exercise the live
# introspection plane end to end (skip: OBSCHECK=0), exercise the
# decision-provenance plane (skip: EXPLAINCHECK=0), prove warm-start
# solving decision-neutral (skip: WARMCHECK=0), drive the wall-clock
# serving mode end to end (skip: SERVECHECK=0), and pin the scale-out
# layer's equivalences (skip: SHARDCHECK=0).
check: vet fmtcheck build race tracecheck benchcheck faultcheck obscheck explaincheck warmcheck servecheck shardcheck

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
		$(GO) test -run='^$$' -bench='HeuristicSolve|HeuristicRepair|OptimalSolve|OptimalWarmStart|ResourceFeasible|SimulateEDF|FeasibleSorted' -benchmem \
			./internal/sched/ ./internal/exact/ ./internal/core/ | $(GO) run ./cmd/benchjson -out= -compare BENCH.json; \
	fi

# tracecheck replays the golden event trace through the auditor: the
# recorded run must satisfy every resource-manager invariant.
tracecheck:
	$(GO) run ./cmd/tracetool check internal/sim/testdata/events.golden.jsonl

# faultcheck smokes the resilience layer under the race detector: the
# fault-sweep ablation (graceful degradation, zero deadline misses), the
# deterministic fault plan, and the end-to-end trace audit of a faulted
# run. Set FAULTCHECK=0 to skip.
FAULTCHECK ?= 1
faultcheck:
	@if [ "$(FAULTCHECK)" = "0" ]; then \
		echo "faultcheck: skipped (FAULTCHECK=0)"; \
	else \
		$(GO) test -race -run 'FaultSweepSmoke|RunGridPromptErrorPropagation|SimDeterminism|EndToEndTraceAudits' \
			./internal/experiments/ ./internal/faultinject/; \
	fi

# obscheck exercises the live introspection plane under the race detector:
# subscriber fan-out (non-blocking, drop-counting), the Prometheus writer
# against the exposition validator and its golden file, the tail follower,
# and the end-to-end smoke test that serves a real simulation on a random
# port and scrapes every endpoint (including the /trace/tail byte-match
# against the JSONL sink). Set OBSCHECK=0 to skip.
OBSCHECK ?= 1
obscheck:
	@if [ "$(OBSCHECK)" = "0" ]; then \
		echo "obscheck: skipped (OBSCHECK=0)"; \
	else \
		$(GO) test -race -run 'Subscriber|Prometheus|ValidateExposition|SLO|Tailer|Decoder|OpsServer|Tail|Snapshotter|PlaneProbe|Explainz' \
			./internal/telemetry/ ./internal/obs/ ./internal/traceview/; \
	fi

# explaincheck exercises the decision-provenance plane: the recorder's
# arena and attempt-stamping semantics, the enumerated reason vocabulary,
# per-candidate feasibility verdicts and solver-chain hops from the
# heuristic/exact/chain solvers, decision events end to end through the
# simulator and the golden trace's reconstructed narratives, and the
# meta-test that keeps every -run gate in this Makefile selecting real
# tests. Set EXPLAINCHECK=0 to skip.
EXPLAINCHECK ?= 1
explaincheck:
	@if [ "$(EXPLAINCHECK)" = "0" ]; then \
		echo "explaincheck: skipped (EXPLAINCHECK=0)"; \
	else \
		$(GO) test -run 'Explain|Provenance|Reason|DecisionEvent|GateRegex|UnknownReason' \
			./internal/telemetry/ ./internal/core/ ./internal/sched/ ./internal/sim/ ./internal/traceview/ ./internal/meta/; \
	fi

# warmcheck proves warm-start solving is a speed knob, not a behaviour
# knob, under the race detector: the exact solver's warm-vs-cold
# differential, the repair engine's
# feasibility property, the fingerprint-churn property behind the
# cross-activation cache, and the end-to-end grid/trace identity checks.
# CI runs this leg under GOMAXPROCS={1,4}; it honours whatever the
# environment sets. Set WARMCHECK=0 to skip.
WARMCHECK ?= 1
warmcheck:
	@if [ "$(WARMCHECK)" = "0" ]; then \
		echo "warmcheck: skipped (WARMCHECK=0)"; \
	else \
		$(GO) test -race -run 'WarmStart|WarmState|Repair|FingerprintChurn' \
			./internal/sched/ ./internal/core/ ./internal/exact/ ./internal/experiments/; \
	fi

# shardcheck pins the scale-out admission layer under the race detector:
# the 1-shard sharded engine is byte-identical to the unsharded path,
# singleton batch epochs are byte-identical to one-by-one admission,
# sharded batched runs are deterministic despite concurrent per-shard
# solves, next-wake/late-advance behave across shard boundaries, the
# indexed candidate scan matches the plain heuristic bit-for-bit, and the
# platform spec/partition/projection plumbing underneath holds. Set
# SHARDCHECK=0 to skip.
SHARDCHECK ?= 1
shardcheck:
	@if [ "$(SHARDCHECK)" = "0" ]; then \
		echo "shardcheck: skipped (SHARDCHECK=0)"; \
	else \
		$(GO) test -race -run 'Sharded|BatchEpoch|IndexedHeuristic|LoadIndex|Partition|ParseSpec|Project' \
			./internal/sim/ ./internal/engine/ ./internal/core/ ./internal/platform/ ./internal/sched/ ./internal/task/; \
	fi

# servecheck drives the wall-clock serving mode end to end under the race
# detector: the sim/server differential (byte-identical results and
# telemetry for the same trace through both drivers of the shared
# engine), graceful-shutdown draining against a fast wall clock,
# concurrent HTTP intake under the serialized-activation contract, the
# obs plane mounted on the serving listener, and the API validation
# fences. Set SERVECHECK=0 to skip.
SERVECHECK ?= 1
servecheck:
	@if [ "$(SERVECHECK)" = "0" ]; then \
		echo "servecheck: skipped (SERVECHECK=0)"; \
	else \
		$(GO) test -race -run 'Serve' ./internal/serve/; \
	fi
