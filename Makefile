# Developer conveniences. CI runs the same commands; see
# .github/workflows/ci.yml.

GO ?= go

# Recipes run under bash with pipefail, so a go test piped into
# cmd/benchjson fails the target when either side fails.
SHELL := bash
.SHELLFLAGS := -o pipefail -c

.PHONY: all build test lint vet fuzz-smoke bench bench-smoke bench-pairs

all: build lint test

build:
	$(GO) build ./...

test:
	$(GO) test -race ./...

# lint runs the p2pvet static-analysis suite (hotpath, atomicfield,
# exhaustive, bannedimport, publish, confine, lockhold, codecparity)
# over the whole module in standalone mode. Exit status 1 on any
# diagnostic. `go run ./cmd/p2pvet ./...` is the same thing without
# make.
lint:
	$(GO) run ./cmd/p2pvet ./...

# vet runs the same suite through the go vet driver, which caches facts
# per package in the build cache — faster on incremental runs.
vet:
	$(GO) build -o ./p2pvet.bin ./cmd/p2pvet
	$(GO) vet -vettool=$(CURDIR)/p2pvet.bin ./...
	rm -f ./p2pvet.bin

fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzReadPacket -fuzztime 10s ./internal/pcap
	$(GO) test -run '^$$' -fuzz FuzzMMapWalk -fuzztime 10s ./internal/ingest
	$(GO) test -run '^$$' -fuzz FuzzReadFilter -fuzztime 10s ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzWritePrometheus -fuzztime 10s ./internal/metrics
	$(GO) test -run '^$$' -fuzz FuzzDecodeFrame -fuzztime 10s ./internal/replica
	$(GO) test -run '^$$' -fuzz FuzzTenantSnapshot -fuzztime 10s .
	$(GO) test -run '^$$' -fuzz FuzzOffloadMap -fuzztime 10s ./internal/offload

# bench runs the root-package benchmarks six times each at a stable
# benchtime and records them as BENCH_p2pbound.json via cmd/benchjson,
# which keeps each benchmark's median, ns/op quartiles and GOMAXPROCS.
# The committed report is the before/after evidence for hot-path
# performance work; regenerate it on a quiet machine and commit the
# result. The explicit timeout bounds a hung run; a run that fails or is
# cut short fails the target and writes no report.
bench:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime 2s -count 6 -timeout 90m . | $(GO) run ./cmd/benchjson -o BENCH_p2pbound.json

# bench-smoke is the CI form: a fixed tiny iteration count proves the
# benchmarks still run and the JSON pipeline still parses and folds
# repeated runs, without pretending a shared runner produces meaningful
# timings.
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkIndexerDerive|BenchmarkFilterProcessBatch|BenchmarkIngestEndToEnd|BenchmarkTenantManagerProcessBatch|BenchmarkOffloadEndToEnd|BenchmarkOffloadProbe|BenchmarkOffloadPublish|BenchmarkPipeline$$' -benchmem -benchtime 5x -count 2 . | $(GO) run ./cmd/benchjson -o BENCH_smoke.json
	rm -f BENCH_smoke.json

# bench-pairs runs p2pbench on two checkouts in alternating pairs until
# PAIRS pairs in which neither run's host drifted are kept (at most
# 3×PAIRS pairs run), and compares those (scripts/benchpairs.sh; kept
# runs land in .bench_pairs/). For example, against a parent checkout
# made with `git archive`:
#   make bench-pairs BASE=../parent WORKLOAD=sharded SEED=1 PAIRS=10
BASE ?= .
NEW ?= .
WORKLOAD ?= campus
SEED ?= 1
PAIRS ?= 10
bench-pairs:
	bash scripts/benchpairs.sh $(BASE) $(NEW) $(WORKLOAD) $(SEED) $(PAIRS) $(BENCHFLAGS)
