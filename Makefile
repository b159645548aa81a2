# Tier-1 verification and CI entry points for the dkcore repo.
#
#   make build       compile every package and binary
#   make apicheck    fail if any exported symbol of the root package (or
#                    the cluster/transport/dataset/oocore/serve/core/chaos/
#                    stream runtime packages) lacks a doc comment, or if
#                    any of them carries a deprecation marker (a replaced
#                    API is deleted, not parked beside its successor)
#   make lint        run cmd/kcore-lint, the domain-invariant static
#                    analyzers (KC001-KC005; see docs/INVARIANTS.md)
#   make test        run the full test suite
#   make examples    go run every examples/* program; each cross-checks
#                    its output against the sequential oracle and exits
#                    non-zero on a mismatch
#   make test-budget run it uncached, print the ten slowest tests, fail if
#                    any test outside the two chaos legs took over 10 s
#   make race        run the test suite under the race detector
#   make fuzz-short  run each native fuzz target briefly
#   make chaos       full chaos equivalence suite: 50-graph pool under
#                    seeded fault schedules across the oocore, cluster,
#                    and serve legs (CHAOS_SEED=N replays a schedule)
#   make chaos-smoke bounded slice of the chaos suite under -race (the
#                    CI lane)
#   make bench       run every testing.B benchmark once (smoke: they must
#                    run, not regress — performance claims go through
#                    `go run ./benchmark`, see README "Measuring")
#   make bench-partition  run only BenchmarkPartitionSetup (the O(n+m)
#                    partition-setup gate; flat-in-p cost is the contract)
#   make bench-allocs     the deterministic allocation and I/O-schedule gates
#   make loc         print the non-test Go line count without benchmark/
#                    and testdata (the size figure ROADMAP's gates use)
#   make ci          build + vet (incl. gofmt gate) + apicheck + lint +
#                    test-budget + examples + race + fuzz-short +
#                    chaos-smoke + bench-allocs: what CI's jobs run
#
# .github/workflows/ci.yml runs build+vet+apicheck+lint+test+examples+
# test-budget as the fast lane and race / fuzz-short / chaos smoke / bench smoke as
# separate parallel jobs.
#
# Lint escape hatches (all greppable, reason mandatory):
#   //dkcore:noalloc <why>     marks a steady-state function the KC004
#                              analyzer holds to zero allocating constructs
#   //dkcore:estwrite <why>    blesses a function to write estimate
#                              or coreness state (KC001): methods of
#                              core.HostState and core.NodeState, the
#                              out-of-core engine's seed and relax, and
#                              the cascade of kcore's level peel (which
#                              Parallel and Certify run)
#   //dkcore:noctx <why>       opts a deliberately blocking exported
#                              function out of ctx-first (KC002)
#   //dkcore:epochinit <why>   marks a pre-publication Epoch initializer
#                              (KC005)
#   //dkcore:lint-ignore KCNNN <why>   suppresses one finding on the same
#                              or next line; a missing reason is KC000

GO         ?= go
FUZZTIME   ?= 10s
BENCHTIME  ?= 1x
CHAOS_SEED ?= 1

.PHONY: all build vet apicheck lint test examples test-budget race fuzz-short chaos chaos-smoke bench bench-partition bench-allocs loc ci

all: build

build:
	$(GO) build ./...

# vet covers every package (./... includes cmd/ and internal/) and gates
# on gofmt over the whole tree, so unformatted or unvetted code in any
# directory fails `make ci`.
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt -l found unformatted files:"; \
		echo "$$unformatted"; \
		exit 1; \
	fi

# apicheck gates the public API surface: every exported symbol of the
# root dkcore package must carry a doc comment, and the networked
# runtime's packages (cluster, transport, dataset) are held to the same
# standard — operators read their godoc when running a deployment. It
# also keeps the surface one generation deep: a deprecation marker in
# any scanned package fails the gate.
apicheck:
	$(GO) run ./internal/apicheck . ./internal/cluster ./internal/transport ./internal/dataset ./internal/oocore ./internal/serve ./internal/core ./internal/stream ./internal/chaos

# lint runs the domain-invariant analyzers over every package: monotone
# estimate writes (only core.HostState and core.NodeState methods, the
# out-of-core engine's seed and relax, and the cascade of kcore's level
# peel hold the blessing), ctx-first cancellation, decode-before-allocate,
# noalloc hot paths, epoch immutability. docs/INVARIANTS.md catalogues
# the invariants; the directives above are the escape hatches.
lint:
	$(GO) run ./cmd/kcore-lint ./...

test: build
	$(GO) test ./...

# examples runs every program under examples/ to completion. They are
# real consumers of the public API that log.Fatal on any disagreement
# with the oracle, so a zero exit from each is the check.
examples: build
	@for dir in examples/*/; do \
		echo "go run ./$$dir"; \
		$(GO) run "./$$dir" > /dev/null || { echo "examples: ./$$dir failed"; exit 1; }; \
	done

# test-budget keeps tier-1 a loop, not a wait: it runs the suite
# uncached, lists the ten slowest top-level tests, and fails if the run
# failed or any test took over 10 s. The two chaos legs are exempt —
# their cost is real-time protocol deadlines, not work.
test-budget: build
	@$(GO) test -count=1 -json ./... | awk ' \
		/"Action":"fail"/ { failed = 1 } \
		/"Action":"(pass|fail)"/ && match($$0, /"Test":"[^"\/]+"/) { \
			name = substr($$0, RSTART + 8, RLENGTH - 9); \
			match($$0, /"Package":"[^"]+"/); pkg = substr($$0, RSTART + 11, RLENGTH - 12); \
			match($$0, /"Elapsed":[0-9.]+/); secs = substr($$0, RSTART + 10, RLENGTH - 10) + 0; \
			printf "%8.2fs  %s:%s\n", secs, pkg, name | "sort -rn | head -10"; \
			if (secs > 10 && name !~ /^TestChaosEquivalence(Cluster|Serve)$$/) \
				over = over sprintf("  %s:%s took %.2fs\n", pkg, name, secs); \
		} \
		END { \
			close("sort -rn | head -10"); \
			if (failed) print "test-budget: the test run failed"; \
			if (over != "") printf "test-budget: over the 10 s budget:\n%s", over; \
			exit (failed || over != "") \
		}'

race: build
	$(GO) test -race ./...

fuzz-short: build
	$(GO) test -run '^$$' -fuzz FuzzDecodeFrame -fuzztime $(FUZZTIME) ./internal/transport
	$(GO) test -run '^$$' -fuzz FuzzCodec -fuzztime $(FUZZTIME) ./internal/transport
	$(GO) test -run '^$$' -fuzz FuzzCompressedFrame -fuzztime $(FUZZTIME) ./internal/transport
	$(GO) test -run '^$$' -fuzz FuzzBlockDecode -fuzztime $(FUZZTIME) ./internal/transport
	$(GO) test -run '^$$' -fuzz FuzzServeHTTP -fuzztime $(FUZZTIME) ./internal/serve
	$(GO) test -run '^$$' -fuzz FuzzServeBinaryFrame -fuzztime $(FUZZTIME) ./internal/serve
	$(GO) test -run '^$$' -fuzz FuzzHostStateDifferential -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzLoadSNAP -fuzztime $(FUZZTIME) ./internal/dataset
	$(GO) test -run '^$$' -fuzz FuzzReadEdgeList -fuzztime $(FUZZTIME) ./internal/graph
	$(GO) test -run '^$$' -fuzz FuzzReadBinary -fuzztime $(FUZZTIME) ./internal/graph
	$(GO) test -run '^$$' -fuzz FuzzOOCoreDecompose -fuzztime $(FUZZTIME) ./internal/oocore
	$(GO) test -run '^$$' -fuzz FuzzParallelDecompose -fuzztime $(FUZZTIME) ./internal/parallel
	$(GO) test -run '^$$' -fuzz FuzzCertify -fuzztime $(FUZZTIME) ./internal/kcore
	$(GO) test -run '^$$' -fuzz FuzzDecodeConfig -fuzztime $(FUZZTIME) ./internal/cluster
	$(GO) test -run '^$$' -fuzz FuzzDecodeResult -fuzztime $(FUZZTIME) ./internal/cluster

# chaos is the full fault-injection acceptance run: a 50-graph pool
# decomposed under seeded fault schedules on every robustness-bearing
# leg (out-of-core spill, cluster protocol, query service). Every run
# must end in the sequential oracle's coreness or a clean structured
# error; a failure prints the seed, which CHAOS_SEED replays exactly.
# docs/OPERATIONS.md ("Chaos drills") is the runbook.
chaos: build
	DKCORE_CHAOS_GRAPHS=50 DKCORE_CHAOS_SEED=$(CHAOS_SEED) \
		$(GO) test -run TestChaosEquivalence -count=1 -v -timeout 20m ./internal/chaos

# chaos-smoke is the CI lane: a bounded seed slice under the race
# detector, fast enough to run on every push.
chaos-smoke: build
	DKCORE_CHAOS_SEED=$(CHAOS_SEED) \
		$(GO) test -run TestChaosEquivalence -count=1 -short -race -timeout 10m ./internal/chaos

# bench runs every testing.B benchmark in the tree once; at the default
# BENCHTIME=1x it is a smoke run proving they still execute.
bench: build
	$(GO) test -run '^$$' -bench . -benchtime $(BENCHTIME) ./...

# bench-partition isolates the partition-setup benchmark: its per-p
# series must stay near-constant at fixed graph size (PartitionAll is a
# single O(n+m) pass); CI's benchmark-smoke lane runs it explicitly so a
# setup regression cannot hide in the full run's noise.
bench-partition: build
	$(GO) test -run '^$$' -bench BenchmarkPartitionSetup -benchtime $(BENCHTIME) .

# bench-allocs is the allocation-regression gate CI's benchmark-smoke
# lane runs: the level peel's scans and cascades under the parallel
# engine, and the HostState Apply/ImproveIfDirty/CollectPointToPoint loop
# the simulator and the cluster host drive, must re-run a warmed state
# with zero allocations, one
# waited Session event must publish its epoch in under 64 KiB of
# allocation, within 2x between a 20k-node and a 200k-node graph (the
# scale gate: an O(n) or O(m) copy on the publish path fails it), a
# waited frame of 16 random events must allocate at most 4 KiB per event
# on a 50k-node and a 300k-node graph (TestPublishBytesPerEvent: copying
# more than a small leaf per written entry fails it), and
# ReadEdgeList must ingest a 100k-node power law's text in at most 64 B
# of allocation per input edge (TestReadEdgeListBytesPerEdge), and a
# cluster host must decode its config, build its HostState and seed its
# estimates in at most 45 B per adjacency entry it owns
# (TestHostSetupBytesPerArc), and the out-of-core engine must decompose
# a 60k-node power law in 4096-node blocks within the read amplification
# and block passes of the per-visit ComputeIndex relax at 2 MiB and
# 4 MiB budgets (TestTightBudgetSchedule).
# Deterministic tests, not benchmark-output parsing.
bench-allocs: build
	$(GO) test -run TestSteadyStateRoundAllocs -count=1 ./internal/parallel
	$(GO) test -run TestRefineSteadyStateAllocs -count=1 ./internal/core
	$(GO) test -run 'TestPublishBytesScaleFree|TestPublishBytesPerEvent' -count=1 .
	$(GO) test -run TestReadEdgeListBytesPerEdge -count=1 ./internal/graph
	$(GO) test -run TestHostSetupBytesPerArc -count=1 ./internal/cluster
	$(GO) test -run TestTightBudgetSchedule -count=1 ./internal/oocore

# loc counts non-test Go lines outside benchmark/ and testdata
# directories (hidden directories, such as the benchmark's scratch
# checkouts, are skipped too).
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './.*' ! -path './benchmark/*' ! -path '*/testdata/*' -print0 | \
		xargs -0 cat | wc -l

ci: build vet apicheck lint test-budget examples race fuzz-short chaos-smoke bench-allocs
