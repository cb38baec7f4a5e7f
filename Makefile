# Test tiers for the Reciprocating Locks reproduction, cheapest first
# (TESTING.md describes when each tier gates a change):
#
#   make check       — the pre-push aggregate: gofmt gate (fails listing
#                      any unformatted file), go vet, the full
#                      build+test suite, the conformance tier, the
#                      kvperf benchmark smoke, and the fuzz smoke.
#   make test        — tier 1: build + full test suite (the CI gate)
#   make race        — race tier: go vet + the full suite under -race
#                      (includes the registry capability-claims tests)
#   make bench       — the root benchmark suite (paper figures + ablations)
#   make bench-json  — regenerate results/bench_baseline.json: a short
#                      mutexbench sweep, a sharded kvbench sweep
#                      (shard count × lock matrix), and read-mostly
#                      sweeps (readmostly/r90 cells: the RW and seqlock
#                      combinators against their exclusive base, plus
#                      the kv store's mixed Get/Put loop), each emitted
#                      in the versioned harness JSON schema and merged
#                      with benchdiff -merge into the single anchor file
#                      cmd/benchdiff compares future runs against
#   make benchdiff-check — self-diff the committed baseline through
#                      cmd/benchdiff (schema + comparator smoke; part of
#                      make check)
#   make chaos       — robustness tier: cancellation/bounded-acquisition
#                      tests under -race, then a seeded fault-injected
#                      torture run over every lock variant with the stall
#                      watchdog armed
#   make conformance — cross-track tier: the full property suite and the
#                      100-schedule sim/real differential checker over
#                      every catalog lock (cmd/conformance)
#   make vtime       — deterministic-time tier: the clock package and
#                      virtual-time conformance tests under -race, then
#                      the real-lock bounded-acquisition + backoff
#                      schedules (Recipro/MCS/CLH) replayed under
#                      clock.Virtual for seeds 1–3, each required to be
#                      byte-identical across runs (cmd/conformance
#                      -vtime)
#   make cluster     — deterministic cluster-simulation tier: every
#                      canonical fault script × seeds {1,2,3} through
#                      cmd/clustersim (invariant violations exit
#                      non-zero with a one-command repro), plus the
#                      cluster package's test suite under -race
#   make explore     — model-checking tier: the schedule-search core
#                      (internal/explore), internal/coherence and
#                      cmd/modelcheck test suites, then 3-thread proofs
#                      of every simulated lock (modelcheck -lock=all
#                      -threads=3 -episodes=1 and -lock=Recipro
#                      -threads=3 -episodes=2, both must exit 0
#                      VERIFIED); then the cluster explorer's and
#                      cmd/clusterexplore's suites, exhaustive schedule
#                      searches over the explore-small preset (must exit
#                      0 VERIFIED), and the three mutation hunts
#                      (-no-fencing, -break-dedup, -skip-reconcile),
#                      each of which must exit 1 with a shrunk repro
#                      script that cmd/clustersim then replays to the
#                      same violation
#   make kvperf      — the repository benchmark module (kvperf/, its own
#                      go.mod): go vet and go test there (the root
#                      ./... never reaches it), then a 1-second run of
#                      each workload, failing unless it reports
#                      "correct":true
#   make fuzz-smoke  — a short fuzz pass (FUZZTIME each) over every fuzz
#                      target: the registry -locks parser, the admission
#                      cycle detector, the kvstore differential,
#                      sharded-batch and iterator-seek differentials +
#                      skiplist targets,
#                      the seqlock optimistic-read differential, the
#                      cluster fault-script interpreter, and the
#                      schedule shrinker

GO ?= go
GOFMT ?= gofmt
CHAOS_SEED ?= 1
CONF_SEED ?= 1
FUZZTIME ?= 5s
BENCH_BASELINE ?= results/bench_baseline.json

.PHONY: all build check fmt-check test vet race bench bench-json benchdiff-check chaos conformance vtime cluster explore kvperf fuzz-smoke

all: test

build:
	$(GO) build ./...

check: fmt-check vet test conformance vtime cluster explore kvperf fuzz-smoke benchdiff-check

fmt-check:
	@out="$$($(GOFMT) -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

test: build
	$(GO) test ./...

vet:
	$(GO) vet ./...

race: vet
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem .

bench-json: build
	@mkdir -p results
	$(GO) run ./cmd/mutexbench -locks=paper -threads=1,2,4,8 -duration=100ms -runs=3 -json -out=results/.mutexbench.part.json
	$(GO) run ./cmd/kvbench -mode=readrandom -locks=Recipro,MCS,GoMutex -shards=1,4 -threads=1,2,4 -keys=20000 -duration=80ms -runs=3 -json -out=results/.kvbench.part.json
	$(GO) run ./cmd/mutexbench -locks=Recipro,rw:Recipro,seq:Recipro,occ:Recipro,GoRWMutex -read-frac=0.9 -threads=1,2,4,8 -duration=100ms -runs=3 -json -out=results/.readmostly.part.json
	$(GO) run ./cmd/kvbench -mode=readrandom -read-frac=0.9 -locks=Recipro,rw:Recipro -shards=1 -threads=1,2,4 -keys=20000 -duration=80ms -runs=3 -json -out=results/.kvreadmostly.part.json
	$(GO) run ./cmd/benchdiff -merge -name=suite -out=$(BENCH_BASELINE) results/.mutexbench.part.json results/.kvbench.part.json results/.readmostly.part.json results/.kvreadmostly.part.json
	rm -f results/.mutexbench.part.json results/.kvbench.part.json results/.readmostly.part.json results/.kvreadmostly.part.json
	$(GO) run ./cmd/benchdiff -check $(BENCH_BASELINE)

benchdiff-check: build
	$(GO) run ./cmd/benchdiff -check $(BENCH_BASELINE)

chaos: build
	$(GO) test -race -run 'TryLock|Bounded|Cancel|Abandon|Chaos|PauseBounded' ./internal/chaos ./internal/bounded ./internal/core ./internal/locks ./internal/waiter
	$(GO) run -race ./cmd/torture -duration=30s -chaos -seed=$(CHAOS_SEED) -stall-timeout=10s -lockstat

conformance: build
	$(GO) run ./cmd/conformance -locks=all -seed=$(CONF_SEED) -schedules=100

vtime: build
	$(GO) test -race -count=1 -run 'Wall|Virtual|Deadline|NoDirectWallClock|VTime' ./internal/clock ./internal/conformance
	$(GO) run ./cmd/conformance -vtime -seed=1 -vtime-seeds=3

cluster: build
	$(GO) test -race ./internal/cluster ./cmd/clustersim
	@set -e; for script in lease-expiry-mid-cs thundering-herd asym-partition slow-node crash-during-handoff restart-storm expire-churn; do \
		for seed in 1 2 3; do \
			$(GO) run ./cmd/clustersim -quiet -script=$$script -seed=$$seed; \
		done; \
		echo "cluster: $$script OK (seeds 1 2 3)"; \
	done

explore: build
	$(GO) test ./internal/explore ./internal/coherence ./cmd/modelcheck
	$(GO) run ./cmd/modelcheck -lock=all -threads=3 -episodes=1
	$(GO) run ./cmd/modelcheck -lock=Recipro -threads=3 -episodes=2
	$(GO) test ./internal/cluster/explore ./cmd/clusterexplore ./internal/verdict
	@set -e; for seed in 1 2 3; do \
		$(GO) run ./cmd/clusterexplore -seed=$$seed; \
		$(GO) run ./cmd/clusterexplore -seed=$$seed -script=expire-churn-tiny -window=1ms -delays=2; \
	done
	@set -e; mkdir -p results; for mut in no-fencing break-dedup skip-reconcile; do \
		repro=results/.repro-$$mut.script; code=0; \
		$(GO) run ./cmd/clusterexplore -seed=1 -script=expire-churn-tiny -window=1ms -delays=2 \
			-$$mut -repro-out=$$repro -quiet || code=$$?; \
		if [ $$code -ne 1 ]; then echo "explore: -$$mut exited $$code, want 1"; exit 1; fi; \
		sched="$$(sed -n 's/^# schedule: //p' $$repro)"; code=0; \
		$(GO) run ./cmd/clustersim -quiet -preset=explore-small -seed=1 -window=1ms -$$mut \
			-script=$$repro -schedule="$$sched" 2>/dev/null || code=$$?; \
		if [ $$code -ne 1 ]; then echo "explore: clustersim replay of $$repro exited $$code, want 1"; exit 1; fi; \
		rm -f $$repro; echo "explore: mutation -$$mut caught, shrunk, and replayed"; \
	done

kvperf: build
	$(GO) -C kvperf vet ./...
	$(GO) -C kvperf test ./...
	@set -e; for w in hot-get cold-mixed scan-batch; do \
		out="$$(bash kvperf/run.sh --workload $$w --seconds 1 --trace 0)"; \
		echo "$$out" | tail -n 1; \
		if ! echo "$$out" | grep -q '"correct":true'; then echo "kvperf: $$w did not report correct"; exit 1; fi; \
	done

fuzz-smoke: build
	$(GO) test -run '^$$' -fuzz='^FuzzParseLocks$$' -fuzztime=$(FUZZTIME) ./internal/registry
	$(GO) test -run '^$$' -fuzz='^FuzzFindCycle$$' -fuzztime=$(FUZZTIME) ./internal/admission
	$(GO) test -run '^$$' -fuzz='^FuzzDBAgainstMap$$' -fuzztime=$(FUZZTIME) ./internal/kvstore
	$(GO) test -run '^$$' -fuzz='^FuzzShardedBatch$$' -fuzztime=$(FUZZTIME) ./internal/kvstore
	$(GO) test -run '^$$' -fuzz='^FuzzIteratorSeek$$' -fuzztime=$(FUZZTIME) ./internal/kvstore
	$(GO) test -run '^$$' -fuzz='^FuzzSkipListOrdering$$' -fuzztime=$(FUZZTIME) ./internal/kvstore
	$(GO) test -run '^$$' -fuzz='^FuzzSeqlockRead$$' -fuzztime=$(FUZZTIME) ./internal/atomicstruct
	$(GO) test -run '^$$' -fuzz='^FuzzFaultScript$$' -fuzztime=$(FUZZTIME) ./internal/cluster
	$(GO) test -run '^$$' -fuzz='^FuzzShrink$$' -fuzztime=$(FUZZTIME) ./internal/cluster/explore
