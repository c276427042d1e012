# Developer entry points. `make check` is the pre-commit gate: static vetting
# plus the race-enabled short test suite (the telemetry layer's concurrent SM
# reporting must stay race-clean), the chaos suite and one iteration of every
# microbenchmark (bench-smoke), so the benchmarks cannot rot. The
# multi-device backend's tests (partition and halo construction, the BSP
# superstep loop, shard conformance) skip nothing under -short, so `test`
# runs them under -race already.

GO ?= go

.PHONY: check build vet lint test test-full bench bench-smoke bench-module-test chaos fuzz-smoke loc families

check: vet lint test chaos bench-smoke

build:
	$(GO) build ./...

# benchmark/ is its own Go module compiled against internal/telemetry, so
# vetting it here catches an interface break before bench-module-test does.
vet:
	$(GO) vet ./...
	cd benchmark && $(GO) vet ./...

# Import layering: algorithm packages meet only through the engine registry.
# Tree hygiene: no non-Go artifacts under internal/ or cmd/. Formatting: every
# Go file of the module is gofmt-clean. No orphans: every library package is
# imported by another package of the module. No test-only exports: every
# exported identifier and method under internal/ has a production user, here
# or in benchmark/, unless lint_test.go's allowlist keeps it with a reason.
# All five are Go tests in lint_test.go at the module root.
lint:
	$(GO) test -count=1 -run 'TestImportLayering|TestSourceTree|TestGofmt|TestNoOrphanPackages|TestExportsUsed' .

test:
	$(GO) test -race -short ./...

# Full suite without the race detector (what CI tier-1 runs).
test-full:
	$(GO) test ./...

# Chaos conformance: fault injection, cancellation, and recovery under -race,
# without -short, so the tests that skip under -short (the load storm) run
# here. Every detector under a fault schedule must converge to a valid
# partition or return a typed error — never hang, never panic.
chaos:
	$(GO) test -race -count=1 -run 'Chaos|Fault|Cancel|Deadline' \
		./internal/engine/ ./internal/nulpa/ ./internal/simt/ ./internal/faults/ \
		./internal/httpapi/ ./internal/health/

# Microbenchmarks beside the zero-alloc guards: full ν-LPA runs with
# telemetry off and on, the per-vertex hot paths of the thread and block
# kernels (BenchmarkVertexKernels: road, web and social at 1 SM, and road
# at 2 SMs, where a move wakes vertices another SM claims), the hashtable
# alone (probing strategies, value widths, the max scan, and the fused
# per-vertex pick at degrees 2, 8 and 256), the health monitor's enabled
# path, the sharded set-up (partitioner and shard build on a 65k social
# graph), graph ingest (CSR assembly from an edge list, binary decode of a
# 13 MB graph, and the 20k web generator a served job runs), and the
# quality read-outs every run pays for (BenchmarkCompressLabels and
# BenchmarkSummarize on a 465k-vertex road labelling).
BENCH_PKGS = ./internal/simt/ ./internal/nulpa/ ./internal/hashtable/ ./internal/health/ \
	./internal/partition/ ./internal/shard/ ./internal/graph/ ./internal/gen/ ./internal/quality/

bench:
	$(GO) test -bench . -benchmem -run '^$$' $(BENCH_PKGS)

# One iteration of every benchmark in bench's packages: a benchmark that no
# longer compiles or fails its own checks breaks check, not the next
# measurement.
bench-smoke:
	$(GO) test -count=1 -run '^$$' -bench . -benchtime 1x $(BENCH_PKGS)

# Short coverage-guided fuzzing, about 10 s each: the CSR builder
# (FuzzFromEdges: the reference builders and 1-4 workers), the web
# generator's own CSR build against FromEdges on its edge list
# (FuzzWebMatchesEdgeList), the binary decoder, the ν-LPA kernels against
# their sequential spec (FuzzDetectMatchesSpec: nulpa at 1 SM, the direct
# configuration and nulpa-sharded at one shard), and the partitioner's
# one-pass move rule against its touched-list spec
# (FuzzMoveVertexMatchesSpec). A failing input is saved under the package's
# testdata/fuzz/ and becomes a seed of every later `go test`.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzFromEdges$$' -fuzztime 10s ./internal/graph/
	$(GO) test -run '^$$' -fuzz '^FuzzWebMatchesEdgeList$$' -fuzztime 10s ./internal/gen/
	$(GO) test -run '^$$' -fuzz '^FuzzReadBinary$$' -fuzztime 10s ./internal/graph/
	$(GO) test -run '^$$' -fuzz '^FuzzDetectMatchesSpec$$' -fuzztime 10s ./internal/nulpa/
	$(GO) test -run '^$$' -fuzz '^FuzzMoveVertexMatchesSpec$$' -fuzztime 10s ./internal/partition/

# Benchmark module tests: statistics, compare bounds, host scaling, spans and
# a toy-scale smoke of every workload. benchmark/ is its own Go module, so
# the root `go test ./...` does not reach it.
bench-module-test:
	cd benchmark && $(GO) test ./...

# Non-test Go lines outside benchmark/: the size figure simplicity changes
# are measured by.
loc:
	@git ls-files '*.go' | grep -v '_test.go$$' | grep -v '^benchmark/' | xargs cat | wc -l

# Distinct metric family names registered (metrics.New*) in the same files:
# the exposition-size figure beside loc.
families:
	@git ls-files '*.go' | grep -v '_test.go$$' | grep -v '^benchmark/' | xargs cat | tr '\n' ' ' | \
		grep -oE 'metrics\.New[A-Za-z]+\( *"[a-z_0-9]+"' | sed -E 's/.*"([a-z_0-9]+)"/\1/' | sort -u | wc -l
