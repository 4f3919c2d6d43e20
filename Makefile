GO ?= go

.PHONY: build test race race-parallel race-batch bench-raw scenarios fuzz vet lint check clean

build:
	$(GO) build ./...

test:
	$(GO) vet ./...
	$(GO) test ./...

race:
	$(GO) test -race ./...

# bench-NAME runs one experiment of the cmd/benchjson table (kernel,
# scenarios, plan, static, columnar, scale, intern) with the settings
# its row fixes and writes BENCH_NAME.json; see BENCHMARKS.md. The
# workload tiers pass through the environment, e.g.
# `make bench-columnar BENCH_SIZE=large`.
bench-%:
	$(GO) run ./cmd/benchjson $*

bench-raw:
	$(GO) test -run xxx -bench . -benchmem .

# race-parallel runs the differential correctness harness under the
# race detector: parallel ≡ sequential, firing ≡ Step, permutation
# invariance, and the sharded interning dictionary (concurrent intern,
# cross-dict misuse, Rekey round-trips, per-run dictionaries).
race-parallel:
	$(GO) test -race -run 'Parallel|Differential|Dict|Rekey' ./...

# race-batch forces every sized plan evaluation through the columnar
# batch pipeline (DECLNET_BATCH=always) and runs the columnar
# differential suites — three-way plan executor agreement, corpus
# queries/programs vs their oracles, parallel runs — under the race
# detector. Catches batch-only bugs the threshold would hide on
# test-sized inputs.
race-batch:
	DECLNET_BATCH=always $(GO) test -race -run 'Columnar|BatchDifferential' ./...

# scenarios runs the fault-scenario matrix under the race detector:
# channel-model unit tests, the fair-channel bit-identity and
# monotone-preservation property harness over the construction zoo,
# and the CALM channel-robustness checks. All runs use fixed seeds —
# deterministic per (seed, scenario).
scenarios:
	$(GO) test -race -run 'Channel|Scenario|Robust|Crash' ./...

# fuzz runs each parser fuzzer briefly (seed corpora are committed
# under internal/*/testdata/fuzz).
fuzz:
	$(GO) test ./internal/fo -fuzz 'FuzzParse$$' -fuzztime 10s
	$(GO) test ./internal/fo -fuzz FuzzParseQuery -fuzztime 10s
	$(GO) test ./internal/datalog -fuzz 'FuzzParse$$' -fuzztime 10s

vet:
	$(GO) vet ./...

# lint runs the repo-invariant linters (internal/lint): planonce
# (sync.Once-guarded plan/memo caches must stay guarded) and nodict
# (interning-dictionary confinement). Stdlib-only — no tool installs.
lint:
	$(GO) run ./cmd/repolint

check: vet lint build test

clean:
	$(GO) clean ./...
