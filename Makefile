# Developer entry points. `make check` is the pre-commit gate: static vetting
# plus the race-enabled short test suite (the telemetry layer's concurrent SM
# reporting must stay race-clean).

GO ?= go

.PHONY: check build vet lint test test-full bench bench-module-test chaos perfdiff-smoke shard-smoke health-smoke load-smoke quality-smoke

check: vet lint test chaos shard-smoke health-smoke load-smoke quality-smoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Import layering: algorithm packages meet only through the engine registry.
# Tree hygiene: no non-Go artifacts under internal/.
lint:
	sh scripts/lint_imports.sh
	sh scripts/lint_tree.sh

test:
	$(GO) test -race -short ./...

# Full suite without the race detector (what CI tier-1 runs).
test-full:
	$(GO) test ./...

# Chaos conformance: fault injection, cancellation, and recovery under -race.
# Every detector under a fault schedule must converge to a valid partition or
# return a typed error — never hang, never panic.
chaos:
	$(GO) test -race -count=1 -run 'Chaos|Fault|Cancel|Deadline' \
		./internal/engine/ ./internal/nulpa/ ./internal/simt/ ./internal/faults/ \
		./internal/httpapi/ ./internal/health/

# Shard smoke: the multi-device backend end to end under -race — partition
# and halo construction, the BSP superstep loop, conformance (determinism,
# partition validity, modularity floor), and single-shard fault recovery.
shard-smoke:
	$(GO) test -race -count=1 -run 'Shard|Partition|Conformance' \
		./internal/engine/ ./internal/nulpa/ ./internal/shard/ ./internal/partition/

# Health smoke: faulted one-shot must emit per-iteration health lines and a
# schema-valid flight dump (reason degraded); live server must stream >=1 SSE
# frame per iteration and serve /jobs/{id}/flight (validated by
# cmd/healthcheck, schema pinned to the committed golden).
health-smoke:
	sh scripts/health_smoke.sh

# Load smoke: overload the serving plane end to end — tiny device pool, an
# open-loop storm from cmd/loadgen, then a fault-injected chaos run. Gates on
# zero lost jobs, Retry-After on every shed, a balanced /debug/vars ledger,
# and a bench-history entry for the run.
load-smoke:
	sh scripts/load_smoke.sh

# Quality smoke: the quality telemetry plane end to end — a planted-partition
# one-shot with -quality must land above the modularity floor with estimator
# drift inside the 1e-6 budget, and a quality-enabled job on a live server
# must surface its final modularity both on the job status and as
# engine_quality_run_modularity on /metrics, the two agreeing.
quality-smoke:
	sh scripts/quality_smoke.sh

# Perfdiff smoke: bench twice into one history file, diff the pair with
# cmd/perfdiff, and validate the attribution report (coverage of the work
# counters, golden JSON schema, Chrome counter export).
perfdiff-smoke:
	sh scripts/perfdiff_smoke.sh

bench:
	$(GO) test -bench . -benchmem -run '^$$' ./internal/bench/

# Benchmark module tests: statistics, compare bounds, host scaling, spans and
# a toy-scale smoke of every workload. benchmark/ is its own Go module, so
# the root `go test ./...` does not reach it.
bench-module-test:
	cd benchmark && $(GO) test ./...
