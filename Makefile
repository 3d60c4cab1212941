# Build/test entry points. ROADMAP.md tier-1 verification is
# `make build test`; `make race` is the concurrency gate for the
# parallel sweep engine and must stay green.

GO ?= go

.PHONY: all build test race bench benchsmoke loc cover fuzz fuzzsmoke smoke clean

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
	$(GO) test -race -count=10 -run 'TestMemConcurrentChaosRace|TestFaultsConcurrentPolicyRace' ./internal/transport/
	$(GO) test -race -count=10 -run TestUDPReceiverSwapRace ./internal/transport/
	$(GO) test -race -count=10 -run TestForkConcurrent ./internal/runtime/
	$(GO) test -race -short -run TestCoverageForkWorkers ./internal/experiments/

bench:
	$(GO) test -bench=. -benchmem ./...

# One iteration of every benchmark: catches benchmarks that no longer
# compile or that panic. It judges no timing; the exact allocation
# counts of the hot paths are tier-1 tests, and `go run ./bench` is
# the measurement.
benchsmoke:
	$(GO) test -run xxx -bench=. -benchtime=1x ./...

# Non-test Go lines outside bench/ and test fixtures: the figure every
# PR reports its delta in.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path '*/testdata/*' | xargs cat | wc -l

# Coverage pass: per-package profile plus the aggregate per-function
# summary (the `total:` line at the end is the headline number).
cover:
	$(GO) test -coverprofile=coverage.out ./...
	$(GO) tool cover -func=coverage.out | tail -n 25

# Short fuzz session for the scenario loader (regression corpus runs
# in plain `make test` as well).
fuzz:
	$(GO) test ./internal/scenario/ -run FuzzLoad -fuzz FuzzLoad -fuzztime 30s

# Ten-second fuzz passes (part of `make smoke`) over the wire-format
# frame parser, the ICMP echo decoder every probe passes through and
# its checksum kernel against the 16-bit loop it replaced — the surfaces
# the chaos layer's frame corruption exercises — over the event
# scheduler's (at, seq) execution order with per-link lanes, over
# the fabric evaluator's two-ended pair search against its
# single-source search, over the two files drsd reads at boot (the
# warm-start checkpoint image and the node config), over the scenario
# loader drsim and drsd both parse cluster documents with, over the
# nemesis schedule validator hand-written -replay files pass through
# (every schedule it accepts must run), and over cluster forks (a fork
# at any instant before the faults must run as the unforked cluster).
fuzzsmoke:
	$(GO) test -run='^$$' -fuzz=FuzzFrame -fuzztime=10s ./internal/routing/wire
	$(GO) test -run='^$$' -fuzz=FuzzUnmarshal -fuzztime=10s ./internal/icmp
	$(GO) test -run='^$$' -fuzz=FuzzChecksum -fuzztime=10s ./internal/icmp
	$(GO) test -run='^$$' -fuzz=FuzzSchedulerOrder -fuzztime=10s ./internal/simtime
	$(GO) test -run='^$$' -fuzz=FuzzFabricPairConnected -fuzztime=10s ./internal/conn
	$(GO) test -run='^$$' -fuzz=FuzzRestore -fuzztime=10s ./internal/core
	$(GO) test -run='^$$' -fuzz=FuzzLoadConfig -fuzztime=10s ./cmd/drsd
	$(GO) test -run='^$$' -fuzz=FuzzLoad -fuzztime=10s ./internal/scenario
	$(GO) test -run='^$$' -fuzz=FuzzSchedule -fuzztime=10s ./internal/nemesis
	$(GO) test -run='^$$' -fuzz=FuzzAppendBernoulli -fuzztime=10s ./internal/rng
	$(GO) test -run='^$$' -fuzz=FuzzFork -fuzztime=10s ./internal/runtime

# End-to-end gate: one iteration of every benchmark (benchsmoke), the
# ten-second fuzz passes (fuzzsmoke), then over the CLIs: the two test
# runs whose flags differ from `make test` (the nemesis fuzzer under
# the race detector without -short; the 3-process drsd cluster under
# a 180 s timeout), then the shipped scenarios and one small campaign
# per drschaos mode through their binaries, a fabric survivability
# table, a fixed-seed nemesis campaign that must heal clean, the
# pinned regression replay that must still reproduce its shrunk
# violation (exit 1), and the live UDP example, which exits nonzero
# unless its failover-then-relay datagrams all arrive. These runs
# check that the binaries work end to end. One output is compared: the
# full drsreport regenerated into a temp file must equal the committed
# REPORT.md byte for byte (it is the same at any GOMAXPROCS). The
# other byte-for-byte pins are tier-1 tests: cmd/drsim
# TestScenarioTraceGolden (every shipped scenario's report and trace),
# the drschaos, drsim, drsreport and drsnemesis goldens, and
# internal/nemesis TestOutcomesGolden (30 generated schedules).
smoke: benchsmoke fuzzsmoke
	$(GO) test -race ./internal/nemesis/ ./cmd/drsnemesis/
	$(GO) test ./cmd/drsd/ -timeout 180s
	$(GO) run ./cmd/drsim -config examples/scenarios/fat-tree.json
	$(GO) run ./cmd/drsim -config examples/scenarios/flapping-rail.json
	$(GO) run ./cmd/drsim -config examples/scenarios/lossy-switched.json
	$(GO) run ./cmd/drsim -config examples/scenarios/nic-failover.json
	$(GO) run ./cmd/drsim -config examples/scenarios/partition-heal.json
	$(GO) run ./cmd/drsim -config examples/scenarios/rolling-backplane-maintenance.json
	$(GO) run ./cmd/drsim -config examples/scenarios/rolling-crash.json
	$(GO) run ./cmd/drsim -config examples/scenarios/static-failover.json
	$(GO) run ./cmd/drsurvive -topology fatTree:k=4 -f 1,2,4 -mc 20000
	$(GO) run ./cmd/drschaos -nodes 4 -duration 20s -levels 0,0.2 -protocols drs,static
	$(GO) run ./cmd/drschaos -mode flap -nodes 4 -duration 20s -levels 0,0.4 -protocols drs,reactive -damping
	$(GO) run ./cmd/drschaos -mode crash -nodes 4 -duration 30s -protocols drs,reactive -rto
	$(GO) run ./cmd/drschaos -mode failover -nodes 4 -duration 20s -protocols failover-rotor,failover-arbor,failover-bounce,drs
	$(GO) run ./cmd/drschaos -mode storm -nodes 5 -duration 30s -levels 0,0.5 -seed 3
	$(GO) run ./cmd/drsnemesis -seed 1 -schedules 10 -horizon 6s -repro /dev/null
	$(GO) run ./cmd/drsnemesis -replay cmd/drsnemesis/testdata/regression.json; \
		status=$$?; test $$status -eq 1 || { echo "regression replay exited $$status, want 1"; exit 1; }
	$(GO) run ./examples/livecluster
	tmp=$$(mktemp); $(GO) run ./cmd/drsreport -out $$tmp && cmp $$tmp REPORT.md; \
		status=$$?; rm -f $$tmp; test $$status -eq 0 || { echo "REPORT.md is stale: go run ./cmd/drsreport -out REPORT.md"; exit 1; }

clean:
	$(GO) clean ./...
