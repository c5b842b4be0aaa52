# Tier-1 gate: what every change must keep green. The test step runs
# TestRepoIsLintClean, the same analyzers `make lint` runs over ./...,
# so verify lints once.
.PHONY: verify
verify: vet build test

# Invariant lint tier: one binary runs the four BlueFi analyzers
# (determinism, lockcheck, scratchalias, obsnames) plus nilness, the
# std-style pass go vet does not run; the atomic, copylocks and
# loopclosure checks come from `make vet`. Allocation-free kernels and
# goroutine lifetimes are checked by tests instead (DESIGN.md §11.1,
# §11.2). Exits non-zero on any finding; a reasoned `//bluefi:<key>
# <reason>` comment on the line is the one way to accept one. See
# DESIGN.md §7 and §11 for the annotations the analyzers understand.
# The binary is built and run rather than `go run`, which would fold
# its exit 2 (packages failed to load) into exit 1 (findings). make
# itself exits 2 whenever the recipe fails, whatever the binary
# returned: make's last line (`Error 1` for findings, `Error 2` for a
# load error) or the built binary run directly carries the distinction.
.PHONY: lint
lint:
	@d=$$(mktemp -d) && go build -o $$d/bluefi-lint ./cmd/bluefi-lint && $$d/bluefi-lint ./...; \
	s=$$?; rm -rf $$d; exit $$s

.PHONY: vet
vet:
	go vet ./...

.PHONY: build
build:
	go build ./...

.PHONY: test
test:
	go test -count=1 ./...

# Race tier: the concurrency layer (Pool, parallel rehearsal search,
# pool-backed audio streams) under the race detector. Short mode skips
# the long experiment suites but keeps every concurrency and golden test.
# The root package runs on its own after the others: it is the longest
# (≈7 min under -race on a 1–2 CPU box) and only nears go test's default
# 10-minute timeout when it shares the CPU with the other packages.
.PHONY: race
race: vet
	go test -race -short -count=1 $$(go list ./... | grep -vx bluefi)
	go test -race -short -count=1 .

# Chaos tier: deterministic fault injection (internal/faults) against
# the hardened pool and the degradation-aware audio path, under the race
# detector. The root TestChaos suite asserts injected worker panics,
# latency inflation and interference bursts never escape the library,
# the acceptance storm still ships ≥80% of frames, health recovers once
# the fault budget is spent, and (via runtime.NumGoroutine) the pool
# leaks zero goroutines; the package runs cover the injector's replay
# contract, the degradation governor and interferer-driven decode loss.
.PHONY: chaos
chaos:
	go test -race -count=1 ./internal/faults ./internal/a2dp ./internal/btrx
	go test -race -count=1 -timeout 30m -run TestChaos .

# E2E tier: the TX→RX loopback conformance rig under the race detector.
# Every synthesis mode (BLE beacon, BR, EDR) goes through the public API,
# the seeded channel model and back through internal/scan; the golden
# round-trip decodes every committed PSDU vector; the connection test
# drives ADV_IND → CONN_IND → data-channel hopping → ATT read with
# goroutine-leak checks. The bluefi-eval matrix gates per-leg PDR and
# appends the scanner snapshot to BENCH_eval.json. See DESIGN.md §10.
.PHONY: e2e
e2e:
	go test -race -count=1 -run 'TestE2E|TestGoldenRoundTrip' .
	go test -race -count=1 ./internal/scan
	go run ./cmd/bluefi-eval -e2e

# Regenerate the committed determinism vectors after an intentional
# pipeline change; review the diff like any other code.
.PHONY: golden
golden:
	go test . -run TestGoldenPSDUs -update-golden -count=1

# Benchmark regression snapshot: BENCH_*.json with ns/op and allocs/op
# for the §4.8 latency budget and the Fig. 9/10 harnesses.
.PHONY: bench-json
bench-json:
	go run ./cmd/bluefi-eval -bench-json

# Size report: non-test Go lines outside bench/ and testdata/ — the net
# line figure every change reports.
.PHONY: loc
loc:
	@git ls-files '*.go' | grep -v '_test.go$$' | grep -v '^bench/' | grep -v 'testdata/' | xargs cat | wc -l

.PHONY: bench
bench:
	go test -bench . -benchmem ./...

# Telemetry overhead gate: an attached registry may cost at most 5% on
# the §4.8 real-time synthesis ns/op versus telemetry disabled
# (DESIGN.md §8's budget). Non-zero exit on regression.
.PHONY: obs-overhead
obs-overhead:
	go run ./cmd/bluefi-eval -obs-overhead

# Allocation regression gate: §4.8 real-time 1-slot allocs/op and
# quality 1-slot bytes/op may exceed the committed BENCH_eval.json rows
# by at most 5% — the whole-packet counterpart of the per-kernel
# TestKernelsAllocFree tables that `make test` runs.
.PHONY: alloc-gate
alloc-gate:
	go run ./cmd/bluefi-eval -alloc-gate

# SLO gate: the alerting layer's acceptance loop. The package tests
# cover the burn-rate math, the hysteresis ladder and the flight
# recorder's bundle contract under the race detector; the bluefi-eval
# replay then drives the chaos storm through the engine and gates on
# the operating contract — exactly one Page episode (opened within one
# fast window of the storm, held together by hysteresis), recovery to
# OK once the fault budget is spent, and a validated flight bundle
# dumped by the page hook into flight/ (uploaded as the CI artifact on
# failure). See DESIGN.md §13.
.PHONY: slo-gate
slo-gate:
	go test -race -count=1 ./internal/obs/...
	go run ./cmd/bluefi-eval -slo

# Fleet soak tier: the beacon-CDN capacity experiment (internal/fleet +
# internal/eval). The package tests cover cache/budget/shard invariants
# and GOMAXPROCS determinism under the race detector; the bluefi-eval
# soak then registers 100k beacons across 64 shards, enforces the ≥90%
# steady-state PSDU cache hit rate floor and zero failed registrations,
# and appends the capacity curve (beacons vs p50/p99/max beacon-slot
# latency) to BENCH_eval.json. See DESIGN.md §12.
.PHONY: fleet-soak
fleet-soak:
	go test -race -count=1 ./internal/fleet
	go test -race -count=1 -run 'TestFleetSoak' ./internal/eval
	go run ./cmd/bluefi-eval -fleet-soak

# A2DP soak tier: the multi-session capacity experiment (SessionManager
# over one shared pool). The package tests cover admission projection,
# the EDF replay and the ship-floor ledger under the race detector; the
# bluefi-eval soak then ramps sessions to the admission knee, gates on
# ≥3 admitted sessions each shipping above the global floor on the
# clean pool, a valid admit/reject flight bundle, and the fault storm
# keeping the fleet at the floor — then appends the capacity curve to
# BENCH_eval.json. See DESIGN.md §14.
.PHONY: a2dp-soak
a2dp-soak:
	go test -race -count=1 ./internal/a2dp
	go test -race -count=1 -run 'TestA2DPSoak' ./internal/eval
	go run ./cmd/bluefi-eval -a2dp-soak
