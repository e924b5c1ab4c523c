# Developer entry points. `make test` is the tier-1 gate; `make race` adds
# the race detector over the internal packages (including the
# sequential-vs-parallel fsim determinism tests); `make fuzz-smoke` gives
# every differential fuzz target a bounded run on top of the committed seed
# corpora; `make cover-gate` fails if total statement coverage drops below
# the repository baseline; `make bench-json` refreshes the
# BENCH_pipeline.json baseline trajectory; `make bench-smoke` is the cheap CI
# variant (one small circuit, parallel workers); `make bench-kernel` refreshes
# the BENCH_kernel.json comparison of every fault-simulation kernel on every
# fault model; `make bench-check` measures fresh smoke benchmarks and gates
# their deterministic work counters against the two committed BENCH
# baselines (wall-clock is advisory; see scripts/bench_compare.go); `make
# serve-smoke` drives `wbist serve` end to end over HTTP (submit, poll,
# cache-hit resubmit, SIGTERM drain; see scripts/serve_smoke.sh); `make
# shell-test` unit-tests the shared shell polling helper
# (scripts/poll_test.sh); `make perfbench-test` vets and tests the perfbench
# module, which has its own go.mod and so is never compiled by `go test
# ./...` although it builds on this module's API.

GO ?= go

# The differential fuzz targets of internal/difftest (see README
# "Correctness tooling"). FUZZTIME bounds each target's smoke run.
FUZZ_TARGETS = FuzzRefVsFsim FuzzEventVsDense FuzzSlabVsDense FuzzFaultFreeVsSim FuzzWgenVsExpansion FuzzBenchRoundTrip FuzzTransitionVsRef FuzzBridgeVsRef
FUZZTIME ?= 10s

.PHONY: all build test race vet fuzz-smoke cover cover-gate bench-json bench-smoke bench-kernel bench-check serve-smoke shell-test perfbench-test

all: build test race vet

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

race:
	$(GO) test -race -short -count=1 ./internal/...

vet:
	$(GO) vet ./...

fuzz-smoke: build
	@for t in $(FUZZ_TARGETS); do \
		echo "=== $$t ($(FUZZTIME)) ==="; \
		$(GO) test ./internal/difftest -run '^$$' -fuzz "^$$t$$" -fuzztime $(FUZZTIME) || exit 1; \
	done

cover:
	$(GO) test -count=1 -coverprofile=/tmp/wbist_cover.out ./...
	$(GO) tool cover -func=/tmp/wbist_cover.out | tail -1

cover-gate:
	./scripts/cover_gate.sh

bench-json: build
	$(GO) run ./cmd/experiments -skip-large -workers 1 bench

bench-smoke: build
	$(GO) run ./cmd/experiments -circuits s298 -bench-json /tmp/wbist_bench_smoke.json bench

bench-kernel: build
	$(GO) run ./cmd/experiments kernelbench

serve-smoke: build
	./scripts/serve_smoke.sh

shell-test:
	./scripts/poll_test.sh

perfbench-test:
	$(GO) -C perfbench vet ./...
	$(GO) -C perfbench test -count=1 ./...

bench-check: build
	$(GO) run ./cmd/experiments -circuits s298 -bench-json /tmp/wbist_bench_fresh.json bench
	$(GO) run ./scripts/bench_compare.go -baseline BENCH_pipeline.json -fresh /tmp/wbist_bench_fresh.json
	$(GO) run ./cmd/experiments -circuits s27,s298 -kernel-json /tmp/wbist_kernel_fresh.json kernelbench
	$(GO) run ./scripts/bench_compare.go -baseline BENCH_kernel.json -fresh /tmp/wbist_kernel_fresh.json
