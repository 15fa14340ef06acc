# Development entry points for the telcochurn reproduction.

GO ?= go

.PHONY: all build vet fmt-check test test-short test-race cover bench bench-smoke bench-check bench-profile chaos loadtest scale-smoke ci experiments experiments-check clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# Race-detector run; the parallel substrate guarantees bit-identical results
# for any worker count, and this gate keeps that claim honest.
test-race:
	$(GO) test -race ./...

cover:
	$(GO) test -cover ./internal/...

# Substrate micro-benchmarks of the root package; the paper's tables and
# figures are regenerated and checked by experiments-check, not timed here.
bench:
	$(GO) test -bench=. -benchmem

# Single-iteration benchmark pass: proves every benchmark still runs without
# paying for stable timings (mirrors the CI smoke job).
bench-smoke:
	$(GO) test -run='^$$' -bench=. -benchtime=1x -benchmem ./...

# bench/ (the BENCHMARK.json harness) is its own module compiled against
# internal/..., so `go build|vet|test ./...` never sees it: this is the check
# that a rename here still builds there. No network needed — bench/go.mod
# only replaces onto `..`.
bench-check:
	cd bench && $(GO) vet . && $(GO) test -short .

# CPU + heap profiles of the tree-training, topic-model, F1-F3 build and
# graph-fold benchmarks (whole month, one customer). The profiles and the
# test binary go to PROFILE_DIR, outside the working tree;
# inspect with `go tool pprof -top $(PROFILE_DIR)/cpu.out` (see DESIGN.md §8).
PROFILE_DIR ?= $(or $(TMPDIR),/tmp)/telcochurn-profile
bench-profile:
	mkdir -p $(PROFILE_DIR)
	$(GO) test -run='^$$' -bench='BenchmarkRandomForestFit|BenchmarkLDAFit|BenchmarkTopicFoldIn|BenchmarkWideTableBuild|BenchmarkCustomerFrame|BenchmarkGraphFold|BenchmarkCompiledScore' \
		-benchtime=5x -benchmem -o $(PROFILE_DIR)/telcochurn.test \
		-outputdir $(PROFILE_DIR) -cpuprofile=cpu.out -memprofile=mem.out .
	@echo "profiles written to $(PROFILE_DIR) (cpu.out, mem.out, telcochurn.test)"

# Fault-schedule property tests under the race detector: seeded chaos over
# the storage/source/assembly/serving resilience stack (see DESIGN.md §11),
# then the whole feature / topic / graph packages (the overlapped frame
# build, chunked co-occurrence finalize and parallel topic fold-in at several
# shard and worker counts), then a time-boxed run of each decoder fuzz target,
# of the request-body targets and of the pipeline-identity differential
# (their seeds already ran as ordinary tests; a failing input lands in the
# package's testdata/fuzz/).
chaos:
	$(GO) test -race -count=1 \
		-run 'Chaos|Crash|Atomic|Retry|Degraded|Partial|Cache|Reload|Readyz|Refresh|Conformance|Corrupt|Hostile|Golden|Layout|Fuzz|Unfitted|Merge|Restart|Boot' \
		./internal/faults/ ./internal/store/ ./internal/codec/ \
		./internal/core/ ./internal/serve/ ./cmd/churnd/ ./cmd/churnctl/
	$(GO) test -race -count=1 ./internal/features/ ./internal/topic/ ./internal/graph/
	$(GO) test -run '^$$' -fuzz '^FuzzReadTable$$' -fuzztime 10s ./internal/store/
	$(GO) test -run '^$$' -fuzz '^FuzzReadSegment$$' -fuzztime 10s ./internal/store/
	$(GO) test -run '^$$' -fuzz '^FuzzReader$$' -fuzztime 10s ./internal/codec/
	$(GO) test -run '^$$' -fuzz '^FuzzReadModel$$' -fuzztime 10s ./internal/tree/
	$(GO) test -run '^$$' -fuzz '^FuzzLoad$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/core/
	$(GO) test -run '^$$' -fuzz '^FuzzScoreRequest$$' -fuzztime 10s ./cmd/churnd/
	$(GO) test -run '^$$' -fuzz '^FuzzEventsRequest$$' -fuzztime 10s ./cmd/churnd/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeEventTables$$' -fuzztime 10s ./internal/serve/
	$(GO) test -run '^$$' -fuzz '^FuzzPipelineIdentity$$' -fuzztime 60s ./internal/core/

# Serving load smoke: train a tiny precomputed artifact, start churnd, drive
# an open-loop churnload run and self-gate on p99 latency and non-2xx rate.
# LOAD_RPS / LOAD_DURATION / LOAD_MAX_P99 override the defaults.
loadtest:
	bash scripts/loadtest.sh

# Out-of-core scale smoke: generate a runner-budget sharded warehouse, run
# the F1-F6 wide-table build shard by shard in a fresh process, and fail if
# peak RSS exceeds the declared ceiling. SCALE_CUSTOMERS / SCALE_SHARDS /
# SCALE_RSS_MB override the defaults (see scripts/scale_smoke.sh).
scale-smoke:
	bash scripts/scale_smoke.sh

# Everything the CI workflow checks, in the same order.
ci: build vet fmt-check bench-check test-race chaos bench-smoke scale-smoke loadtest

# Regenerate every table and figure at reference scale (see EXPERIMENTS.md);
# `make -s experiments > experiments_output.txt` rewrites the golden file (run
# times go to stderr).
EXPERIMENT_FLAGS = -customers 4000 -trees 150 -repeats 2
experiments:
	$(GO) run ./cmd/churnctl eval all $(EXPERIMENT_FLAGS)

# The same run compared byte for byte with the committed
# experiments_output.txt, naming the first table that differs (about 2 min
# on 2 vCPU, so it is a CI job of its own and not part of `make test`).
experiments-check:
	GO=$(GO) bash scripts/experiments_check.sh $(EXPERIMENT_FLAGS)

clean:
	rm -rf warehouse churn-model.bin churn-model.tcpa LOAD.json LOAD_MIX.json
