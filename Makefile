# Tier-1 verification for the MOT reproduction.
#
#   make check   — gofmt, vet, build, full test suite, -race smoke tier,
#                  the chaos fault-injection tier, the churn and scale
#                  tiers, the benches, the motbench self-test, then the
#                  motlint determinism/concurrency analyzer suite
#   make lint    — just motlint (internal/lint rules over every package);
#                  also writes motlint.sarif so CI can annotate PRs
#   make race    — just the -race smoke tier (parallel sweep harness,
#                  seed-stream splits, goroutine tracker + track.Group)
#   make chaos   — just the chaos tier: seeded crash/drop/delay schedules
#                  on both execution substrates under -race, with recovery
#                  invariants asserted at quiescence and golden fault-trace
#                  replay checks
#   make cover   — full-suite coverage, failing below COVER_MIN%
#   make bench   — every benchmark once (-benchtime=1x): the per-figure
#                  benches, the sweep-worker timing, and the observability
#                  nil-sink/enabled ablations; part of make check so the
#                  bench harnesses can never bit-rot
#   make churn   — the sustained-churn tier under -race: seeded
#                  fail/recover schedules on the incremental repair engine
#                  vs the rebuild baseline, the recovery SLO asserted
#                  after every epoch, plus the worker-count and
#                  repair-vs-rebuild byte-identity goldens and the core
#                  height-shrink regression
#   make scale   — the large-n smoke tier: one 10 000-node cost-ratio
#                  cell on the sub-quadratic distance oracle, asserting it
#                  never freezes an n×n table, plus the oracle/exact
#                  fallback golden, the sampled exact-metering audit, and
#                  the 10k churn cell (repair cost sublinear vs rebuild)
#   make soak    — the opt-in serving soak tier (not part of make check):
#                  ~60s of sustained mixed HTTP load plus a rolling chaos
#                  drill against a live motserve server, then a graceful
#                  drain with the service invariants asserted at
#                  quiescence (no lost acknowledged moves, no operation
#                  still in flight, request p99 under the collapse SLO);
#                  MOT_SOAK_SECS shortens it (CI runs 15s on every PR)
#   make bench-json — the perf-trajectory suite (frozen vs lazy metric
#                  reads, all-pairs precompute, substrate-cache on/off
#                  sweep throughput, oracle build/read vs exact, a 10k
#                  oracle scale cell, a churn cell with the
#                  repair-vs-rebuild ratio, the live-telemetry
#                  overhead pins: nil-sink allocs and runtime ops with
#                  live on vs off, and the motserve serving rows:
#                  publish/move/query ops through the sharded HTTP front
#                  end) written to BENCH_15.json, the committed baseline;
#                  CI uploads the file as an artifact. BENCH_10.json
#                  stays committed as the previous trajectory point
#   make bench-gate — the CI regression gate: re-measure the suite into
#                  BENCH_current.json (never committed) and diff it
#                  against the committed BENCH_15.json baseline with
#                  cmd/benchdiff — >15% ns/op growth or any allocs/op
#                  growth on a pinned benchmark fails; benchdiff.md
#                  holds the delta table CI uploads
#
#   make motbench — vet and self-test the benchmark (cmd/motbench is its
#                  own module, so the root go build/vet/test never
#                  compile it); part of make check so an API change in
#                  core or runtime cannot break the benchmark unnoticed
#
#   make loc     — the size number ROADMAP tracks: non-test Go lines
#                  of the tracked files, excluding cmd/motbench/ and
#                  testdata/
#
# The -race and chaos tiers are intentionally short: they run only the
# tests that exercise real concurrency and fault injection in the packages
# that own them, so the whole check stays CI-friendly.

GO ?= go

RACE_PKGS = ./internal/experiments ./internal/runtime ./internal/runtime/track ./internal/mobility ./internal/graph ./internal/serve
RACE_RUN  = 'TestRace|TestParallel|TestGolden|TestStream|TestConcurrent|TestOracle|TestOrderedPool'

CHAOS_PKGS = ./internal/chaos ./internal/core ./internal/sim ./internal/runtime ./internal/experiments .
CHAOS_RUN  = 'TestChaos|TestGoldenChaos|TestRaceDoubleStop'

CHURN_PKGS = ./internal/hier ./internal/debruijn ./internal/core ./internal/experiments .
CHURN_RUN  = 'TestChurn|TestGoldenChurn|TestStaleObjects|TestHierRepair|TestExcludeReadmit|TestDynamicJoinLeave|TestQuickJoinLeave|TestIncremental|TestFailRecover|TestFailNode|TestRebuildEachEvent'

# Statement-coverage floor for `make cover` (the suite sits a few points
# above; raise the floor as coverage grows, never lower it to pass).
COVER_MIN = 79

.PHONY: check fmt vet build test race chaos churn scale soak lint cover bench bench-json bench-gate motbench loc

check: fmt vet build test race chaos churn scale bench motbench lint

fmt:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed:"; echo "$$unformatted"; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -run $(RACE_RUN) -timeout 5m $(RACE_PKGS)

chaos:
	$(GO) test -race -run $(CHAOS_RUN) -timeout 5m $(CHAOS_PKGS)

churn:
	$(GO) test -race -run $(CHURN_RUN) -timeout 10m $(CHURN_PKGS)

scale:
	$(GO) test -run 'TestScaleOracle|TestGoldenScaleOracle' -timeout 5m ./internal/experiments

soak:
	MOT_SOAK=1 $(GO) test -race -run TestSoakServe -timeout 10m -v ./internal/serve

lint:
	$(GO) run ./cmd/motlint -sarif motlint.sarif ./...

cover:
	$(GO) test -coverprofile=coverage.out ./...
	@$(GO) tool cover -func=coverage.out | tail -n 1
	@total=$$($(GO) tool cover -func=coverage.out | tail -n 1 | awk '{sub(/%/, "", $$3); print $$3}'); \
	ok=$$(awk -v t="$$total" -v min="$(COVER_MIN)" 'BEGIN { print (t >= min) ? 1 : 0 }'); \
	if [ "$$ok" != 1 ]; then \
		echo "coverage $$total% is below COVER_MIN=$(COVER_MIN)%"; exit 1; \
	fi

bench:
	$(GO) test -bench=. -benchtime=1x -run=^$$ ./...

bench-json:
	$(GO) run ./cmd/motsim -benchjson BENCH_15.json

bench-gate:
	$(GO) run ./cmd/motsim -benchjson BENCH_current.json
	$(GO) run ./cmd/benchdiff -baseline BENCH_15.json -current BENCH_current.json -md benchdiff.md

motbench:
	cd cmd/motbench && $(GO) vet ./... && $(GO) test ./...

loc:
	@git ls-files '*.go' | grep -v -e '_test\.go$$' -e '^cmd/motbench/' -e 'testdata/' | xargs cat | wc -l
