# Test tiers for the Reciprocating Locks reproduction, cheapest first
# (TESTING.md describes when each tier gates a change):
#
#   make check       — the pre-push aggregate: gofmt gate (fails listing
#                      any unformatted file), go vet, the full
#                      build+test suite, the conformance, vtime and
#                      explore tiers, the kvperf benchmark smoke, the
#                      fuzz smoke, the bench smoke, and the Figure 1
#                      golden check.
#   make test        — tier 1: build + full test suite (the CI gate);
#                      includes the Track B golden test, which
#                      regenerates every deterministic results file
#                      except the Figure 1 pair and compares it byte
#                      for byte with results/
#   make race        — race tier: go vet + the full suite under -race
#                      (includes the registry capability-claims tests)
#   make bench       — the root benchmark suite (paper figures + ablations)
#   make bench-smoke — every benchmark in the module run once
#                      (-benchtime 1x): catches a benchmark that panics
#                      or fails its own checks, which the test tiers
#                      never run
#   make chaos       — robustness tier: cancellation/bounded-acquisition
#                      tests under -race (among them internal/core's
#                      clock.Virtual TestBounded* repros: LockFor over a
#                      TryLock holder, a handoff holder and a buried
#                      waiter), then a seeded fault-injected torture run
#                      over every lock variant with the stall watchdog
#                      armed; it fails if a lock offers a vetoed surface
#                      (TryLock, LockFor, ReadValidate) whose veto point
#                      no call drew
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
#   make explore     — model-checking tier: the schedule-search core
#                      (internal/explore), internal/coherence and
#                      cmd/modelcheck test suites, then 3-thread proofs
#                      of every simulated lock (modelcheck -lock=all
#                      -threads=3 -episodes=1 and -lock=Recipro
#                      -threads=3 -episodes=2, both must exit 0
#                      VERIFIED); then the kvstore schedule search over
#                      the real store code: exhaustive VERIFIED searches
#                      of the coarse DB and a 2-shard ShardedDB, and
#                      three mutation hunts (unstamped memtable
#                      snapshot, per-shard batch apply, descending
#                      stripe order), each of which must catch its
#                      violation, shrink the schedule, and replay the
#                      shrunk schedule to the same violation
#   make kvperf      — the repository benchmark module (kvperf/, its own
#                      go.mod): go vet and go test there (the root
#                      ./... never reaches it), then a 1-second run of
#                      each workload, failing unless it reports
#                      "correct":true
#   make figures-check — regenerate the Figure 1 simulator files
#                      (fig1_sim_intel, fig1_sim_arm; about 3 minutes
#                      on 2 CPUs) into a temp dir and cmp each against
#                      results/: the Track B files the tier-1 golden
#                      test leaves out for time
#   make fuzz-smoke  — a short fuzz pass (FUZZTIME each) over every fuzz
#                      target: the registry -locks parser, the admission
#                      cycle detector, the kvstore differential,
#                      sharded-batch and iterator-seek differentials,
#                      the memtable arena against a per-stamp map model
#                      over a buffer that regrows many times, the
#                      sorted-run search against
#                      sort.Search over arbitrary byte keys, the
#                      stretch merge against the iterators' per-entry
#                      merge over 1–6 runs, and the schedule shrinker

GO ?= go
GOFMT ?= gofmt
CHAOS_SEED ?= 1
CONF_SEED ?= 1
FUZZTIME ?= 5s

.PHONY: all build check fmt-check test vet race bench bench-smoke chaos conformance vtime explore kvperf fuzz-smoke figures-check

all: test

build:
	$(GO) build ./...

check: fmt-check vet test conformance vtime explore kvperf fuzz-smoke bench-smoke figures-check

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

bench-smoke: build
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

chaos: build
	$(GO) test -race -run 'TryLock|Bounded|Cancel|Abandon|Chaos|PauseBounded' ./internal/chaos ./internal/bounded ./internal/core ./internal/locks ./internal/waiter
	$(GO) run -race ./cmd/torture -duration=30s -chaos -seed=$(CHAOS_SEED) -stall-timeout=10s -lockstat

conformance: build
	$(GO) run ./cmd/conformance -locks=all -seed=$(CONF_SEED) -schedules=100

vtime: build
	$(GO) test -race -count=1 -run 'Wall|Virtual|NoDirectWallClock|VTime' ./internal/clock ./internal/conformance
	$(GO) run ./cmd/conformance -vtime -seed=1 -vtime-seeds=3

explore: build
	$(GO) test ./internal/explore ./internal/coherence ./cmd/modelcheck
	$(GO) run ./cmd/modelcheck -lock=all -threads=3 -episodes=1
	$(GO) run ./cmd/modelcheck -lock=Recipro -threads=3 -episodes=2
	$(GO) test -count=1 -v -run Explore ./internal/kvstore

kvperf: build
	$(GO) -C kvperf vet ./...
	$(GO) -C kvperf test ./...
	@set -e; for w in hot-get cold-mixed scan-batch; do \
		out="$$(bash kvperf/run.sh --workload $$w --seconds 1 --trace 0)"; \
		echo "$$out" | tail -n 1; \
		if ! echo "$$out" | grep -q '"correct":true'; then echo "kvperf: $$w did not report correct"; exit 1; fi; \
	done

figures-check: build
	@set -e; tmp="$$(mktemp -d)"; trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) run ./cmd/figures -only=fig1_sim_intel,fig1_sim_arm -out="$$tmp"; \
	for f in fig1_sim_intel fig1_sim_arm; do cmp "$$tmp/$$f.txt" results/$$f.txt; done

fuzz-smoke: build
	$(GO) test -run '^$$' -fuzz='^FuzzParseLocks$$' -fuzztime=$(FUZZTIME) ./internal/registry
	$(GO) test -run '^$$' -fuzz='^FuzzFindCycle$$' -fuzztime=$(FUZZTIME) ./internal/admission
	$(GO) test -run '^$$' -fuzz='^FuzzDBAgainstMap$$' -fuzztime=$(FUZZTIME) ./internal/kvstore
	$(GO) test -run '^$$' -fuzz='^FuzzShardedBatch$$' -fuzztime=$(FUZZTIME) ./internal/kvstore
	$(GO) test -run '^$$' -fuzz='^FuzzIteratorSeek$$' -fuzztime=$(FUZZTIME) ./internal/kvstore
	$(GO) test -run '^$$' -fuzz='^FuzzSkipListOrdering$$' -fuzztime=$(FUZZTIME) ./internal/kvstore
	$(GO) test -run '^$$' -fuzz='^FuzzRunSearch$$' -fuzztime=$(FUZZTIME) ./internal/kvstore
	$(GO) test -run '^$$' -fuzz='^FuzzMergeRuns$$' -fuzztime=$(FUZZTIME) ./internal/kvstore
	$(GO) test -run '^$$' -fuzz='^FuzzShrink$$' -fuzztime=$(FUZZTIME) ./internal/explore
