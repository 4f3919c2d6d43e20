GO ?= go

.PHONY: build test race race-parallel bench-raw scenarios fuzz vet lint check clean

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
# race detector: the configuration matrix (runtime × channel ×
# dictionary × batch pipeline × probe × budget, every cell
# bit-identical to its reference), firing ≡ Step, permutation
# invariance, the corpus and plan suites that check the tuple and
# forced-columnar executors against definitional oracles (a plan
# evaluator with no schedule or index, a naive Datalog evaluator over
# the rule syntax, FO's active-domain enumerator), and the sharded
# interning dictionary (concurrent intern, lock-free reads during table
# growth, tag collisions, ID assignment, lookup misses, cross-dict
# misuse, Rekey round-trips, per-run dictionaries).
race-parallel:
	$(GO) test -race -run 'Parallel|Differential|Dict|Rekey|Intern' ./...

# scenarios runs the fault-scenario tests under the race detector:
# channel-model unit tests, monotone-preservation over the
# construction zoo, the configuration matrix's fair-channel and
# rerun-determinism views, and the CALM channel-robustness checks.
# All runs use fixed seeds — deterministic per (seed, scenario).
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
