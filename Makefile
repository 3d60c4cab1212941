# Build/test entry points. ROADMAP.md tier-1 verification is
# `make build test`; `make race` is the concurrency gate for the
# parallel sweep engine and must stay green.

GO ?= go

.PHONY: all build test race bench benchsmoke loc fabric-smoke cover fuzz fuzzsmoke chaos-smoke crash-smoke failover-smoke daemon-smoke nemesis-smoke storm-smoke clean

all: build test

build:
	$(GO) build ./...

# One uncached pass per CPU count (the test cache does not key on
# GOMAXPROCS): a result that depends on the host's core count fails
# here, not on someone's laptop. The race target does the same.
test:
	for p in 1 2 4; do GOMAXPROCS=$$p $(GO) test -count=1 ./... || exit 1; done

# Race-detector pass over every package. The packet-level campaigns
# are slow under the detector, so long-running cases honour -short;
# the determinism and cache-contention tests still run.
race:
	for p in 1 2 4; do GOMAXPROCS=$$p $(GO) test -race -short -count=1 ./... || exit 1; done
	$(GO) test -race ./internal/parallel/ ./internal/survival/ ./internal/metrics/
	$(GO) test -race -count=10 -run TestLiveScratchIsRaceFree ./internal/core/
	$(GO) test -race -count=10 -run TestRoundsStopRacesTick ./internal/linkmon/
	$(GO) test -race -count=10 -run 'TestManualAdvanceRacesAfterFunc|TestNowRacesAdvance' ./internal/clock/

bench:
	$(GO) test -bench=. -benchmem ./...

# One iteration of every benchmark: catches benchmarks that no longer
# compile or that panic. It judges no timing; the exact allocation
# counts of the hot paths are tier-1 tests, and `go run ./bench` is
# the measurement.
benchsmoke:
	$(GO) test -run xxx -bench=. -benchtime=1x ./...

# Non-test Go lines outside bench/: the figure every PR reports its
# delta in.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' | xargs cat | wc -l

# Switched-fabric gate: the fabric graph, forwarding, Monte Carlo and
# scenario-layer tests, then the shipped fat-tree scenario (ToR outage
# under the forwarding-invariant checker) through drsim, and one small
# fabric survivability table. Deterministic end to end, so any diff is
# a real regression.
fabric-smoke:
	$(GO) test ./internal/topology/ ./internal/conn/ ./internal/netsim/ ./internal/montecarlo/
	$(GO) test ./internal/scenario/ -run 'Topology|FatTree|RoundTrip'
	$(GO) run ./cmd/drsim -config examples/scenarios/fat-tree.json
	$(GO) run ./cmd/drsurvive -topology fatTree:k=4 -f 1,2,4 -mc 20000

# Coverage pass: per-package profile plus the aggregate per-function
# summary (the `total:` line at the end is the headline number).
cover:
	$(GO) test -coverprofile=coverage.out ./...
	$(GO) tool cover -func=coverage.out | tail -n 25

# Short fuzz session for the scenario loader (regression corpus runs
# in plain `make test` as well).
fuzz:
	$(GO) test ./internal/scenario/ -run FuzzLoad -fuzz FuzzLoad -fuzztime 30s

# Ten-second fuzz passes (CI gate) over the wire-format frame parser
# and the ICMP echo decoder every probe passes through — the surfaces
# the chaos layer's frame corruption exercises — over the event
# scheduler's (at, seq) execution order with per-link lanes, over
# the fabric evaluator's two-ended pair search against its
# single-source search, and over the two files drsd reads at boot:
# the warm-start checkpoint image and the node config.
fuzzsmoke:
	$(GO) test -run='^$$' -fuzz=FuzzFrame -fuzztime=10s ./internal/routing/wire
	$(GO) test -run='^$$' -fuzz=FuzzUnmarshal -fuzztime=10s ./internal/icmp
	$(GO) test -run='^$$' -fuzz=FuzzSchedulerOrder -fuzztime=10s ./internal/simtime
	$(GO) test -run='^$$' -fuzz=FuzzFabricPairConnected -fuzztime=10s ./internal/conn
	$(GO) test -run='^$$' -fuzz=FuzzRestore -fuzztime=10s ./internal/core
	$(GO) test -run='^$$' -fuzz=FuzzLoadConfig -fuzztime=10s ./cmd/drsd

# Gray-failure gate: the chaos injector and campaign-harness tests
# (golden tables, worker-count determinism) plus one quick live
# campaign and the flapping-rail damping scenario. Everything here is
# deterministic, so any diff is a real regression.
chaos-smoke:
	$(GO) test ./internal/chaos/ ./cmd/drschaos/
	$(GO) run ./cmd/drschaos -nodes 4 -duration 20s -levels 0,0.2 -protocols drs,static
	$(GO) run ./cmd/drsim -config examples/scenarios/flapping-rail.json

# Crash–restart lifecycle gate: the crash scheduler, lifecycle and
# campaign tests (warm-vs-cold goldens, worker-count determinism) plus
# one live crash campaign and the rolling-crash scenario. Deterministic
# end to end, so any diff is a real regression.
crash-smoke:
	$(GO) test ./internal/chaos/ ./internal/linkmon/ ./cmd/drschaos/
	$(GO) test ./internal/core/ ./internal/runtime/ -run 'Lifecycle|Crash|Warm|Rejoin|Incarnation|RTO'
	$(GO) run ./cmd/drschaos -mode crash -nodes 4 -duration 30s -protocols drs,reactive -rto
	$(GO) run ./cmd/drsim -config examples/scenarios/rolling-crash.json

# Static fast-failover gate: the failover family and the invariant
# checker (exhaustive single-failure sweeps, dynamic-flap goldens,
# negative loop controls), the head-to-head campaign goldens, one live
# campaign run and the invariant-enforced scenario. Deterministic end
# to end, so any diff is a real regression.
failover-smoke:
	$(GO) test ./internal/failover/ ./internal/invariant/ ./cmd/drschaos/
	$(GO) test ./internal/runtime/ -run 'Invariant|Failover'
	$(GO) run ./cmd/drschaos -mode failover -nodes 4 -duration 20s -protocols failover-rotor,failover-arbor,failover-bounce,drs
	$(GO) run ./cmd/drsim -config examples/scenarios/static-failover.json

# Live daemon gate: the clock and transport seams (in-memory, UDP),
# the hermetic multi-daemon lifecycle, in-phase round and clock-parity
# regressions, drsd's -validate golden errors, and the real 3-process
# localhost cluster: converge, SIGHUP reload, kill -9, warm rejoin,
# SIGTERM drain. The process test binds ephemeral loopback UDP ports only.
daemon-smoke:
	$(GO) test ./internal/clock/ ./internal/transport/
	$(GO) test ./internal/runtime/ -run 'HermeticLifecycle|HermeticInPhase|ClockParity'
	$(GO) test ./cmd/drsd/ -timeout 180s

# Nemesis gate: the fault-schedule fuzzer's own tests (determinism,
# shrinking, invariants) under the race detector, a fixed-seed campaign
# that must heal clean, and the pinned regression replay that must
# still reproduce its shrunk violation (exit 1). Everything runs on
# virtual time, bit-identical from its seeds.
nemesis-smoke:
	$(GO) test -race ./internal/nemesis/ ./cmd/drsnemesis/
	$(GO) run ./cmd/drsnemesis -seed 1 -schedules 10 -horizon 6s -repro /dev/null
	$(GO) run ./cmd/drsnemesis -replay cmd/drsnemesis/testdata/regression.json; \
		status=$$?; test $$status -eq 1 || { echo "regression replay exited $$status, want 1"; exit 1; }

# Overload-protection gate: the budget/queue/governor primitives and
# the wiring tests across the stack (core overload behaviors, tunable
# plumbing, scenario schema, drsd gauges), the storm-campaign harness
# (golden table, worker-count determinism, budget-bound property), the
# budgeted nemesis invariant, then one live correlated-failure storm
# campaign. Deterministic end to end, so any diff is a real regression.
storm-smoke:
	$(GO) test ./internal/overload/ ./internal/dataplane/
	$(GO) test ./internal/core/ ./internal/runtime/ ./internal/scenario/ -run 'Overload|Storm'
	$(GO) test ./cmd/drsd/ -run 'Overload|MetricsSnapshot'
	$(GO) test ./cmd/drschaos/ -run 'Storm'
	$(GO) test ./internal/nemesis/ -run 'Budget'
	$(GO) run ./cmd/drschaos -mode storm -nodes 5 -duration 30s -levels 0,0.5 -seed 3

clean:
	$(GO) clean ./...
