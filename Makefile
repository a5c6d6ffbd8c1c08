# memshield build targets. CI (.github/workflows/ci.yml) runs the same
# commands; `make lint` is the static gate every PR must pass.

GO ?= go

.PHONY: all build test race lint lint-cold lint-json lint-self test-faults soak soak-smoke bench-smoke bench-json fleet-smoke fuzz figures figures-smoke

all: build lint test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# lint = the compiler-adjacent vet suite plus memlint, the repo's own
# go/analysis-style checkers (detrand, physaccess, keycopy, keylifetime,
# sealwindow, simerrcheck, nopanic). See DESIGN.md "Static guarantees".
# memlint
# reuses per-package results from .memlintcache when the inputs are
# byte-identical; cold and warm runs print the same findings.
lint:
	$(GO) vet ./...
	$(GO) run ./cmd/memlint ./...

# lint-cold: the same gate with the on-disk result cache purged first —
# every package is re-analyzed from scratch. CI times this against the
# warm run and archives both numbers (memlint-timing artifact).
lint-cold:
	rm -rf .memlintcache
	$(GO) vet ./...
	$(GO) run ./cmd/memlint ./...

# lint-json: the same findings as `make lint`, rendered as one
# machine-readable document (memlint-findings.json) — CI archives it as
# an artifact so a red gate can be triaged without re-running locally.
# The exit code still gates: findings fail the target after the file is
# written.
lint-json:
	$(GO) run ./cmd/memlint -json ./... > memlint-findings.json

# lint-self: the analyzers must hold themselves to their own invariants —
# zero diagnostics over internal/analysis/... with zero suppressions
# beyond policy.SuppressionBudget (the budget itself is enforced by
# internal/analysis/policy's TestSuppressionBudget).
lint-self:
	$(GO) run ./cmd/memlint ./internal/analysis/...
	$(GO) test -run TestSuppressionBudget ./internal/analysis/policy

# Fault-injection matrix under the race detector: both servers × six
# protection levels × 72 seeded plans, plus the seed-replay determinism
# check and the no-false-security demonstrations (DESIGN.md §8, §10). CI
# runs this on each PR.
test-faults:
	$(GO) test -race -run 'TestFaultMatrix|TestNoFalseSecurity' -v .

# Chaos soak: seeded fault storms against supervised servers with the
# machine invariants checked every tick (cmd/soak, DESIGN.md §11). The
# smoke variant is the CI gate: a short parallel sweep re-verified
# serially (-verify demands the event log replay byte-identical at both
# worker counts) with the log archived as the soak-events artifact.
soak:
	$(GO) run ./cmd/soak -storms 8 -steps 200 -workers 4 -verify

soak-smoke:
	$(GO) run ./cmd/soak -storms 6 -steps 120 -workers 4 -verify -log soak-events.log

# One iteration of the scanning-engine, keyfinder and per-level server
# connect benchmarks under the race detector: exercises the sharded scan,
# the incremental rescan and the chunked factor scan concurrency without any
# timing sensitivity, so it catches concurrency bit-rot in CI (DESIGN.md
# §9), and keeps the sshd/httpd connect benches at every measured level
# from rotting. CI runs this on each PR.
bench-smoke:
	$(GO) test -race -run TestNothing -bench 'BenchmarkMemoryScan|BenchmarkKeyfinderFactorScan|BenchmarkSSHConnectPerLevel|BenchmarkHTTPDConnectPerLevel' -benchtime=1x .

# The published fleet bench trajectory (EXPERIMENTS.md "Benchmark JSON
# format"): event engine vs per-tick loop baseline at 10k and 100k
# connections, the scanned sealed httpd fleet at 10k (every machine
# scanned every tick) and the opt-in 1M timeline, converted to BENCH_10.json by
# cmd/benchjson. Single-iteration runs — the workloads are deterministic,
# so one iteration is the measurement.
bench-json:
	$(GO) test -run TestNothing -bench 'BenchmarkFleet' -benchmem -benchtime=1x -fleet-1m . | $(GO) run ./cmd/benchjson -o BENCH_10.json

# Fleet engine smoke for CI: the shard/worker-invariance contract under
# the race detector, then a small fleet storm (shared re-provision
# budget, serial grant order) with the serial replay verified.
fleet-smoke:
	$(GO) test -race -run 'TestShardWorkerInvariance|TestEventLoopPopulationIdentical|TestFleetStorm' ./internal/fleet
	$(GO) run ./cmd/soak -fleet 4 -rounds 6 -steps 40 -budget 2 -workers 4 -verify -log fleet-events.log

# Short fuzz smoke over every fuzz target (30s each).
fuzz:
	$(GO) test -fuzz=FuzzReadInteger -fuzztime=30s ./internal/crypto/der
	$(GO) test -fuzz=FuzzDecode -fuzztime=30s ./internal/crypto/pemfile
	$(GO) test -fuzz=FuzzFindPlanted -fuzztime=30s ./internal/scan
	$(GO) test -fuzz=FuzzKeyfinderDERWalk -fuzztime=30s ./internal/keyfinder

figures:
	$(GO) run ./cmd/figures -all

# Scaled-down full-catalog run on 4 workers under the race detector: a fast
# end-to-end check that the parallel trial scheduler is race-free and that
# every experiment still completes. CI runs this on each PR.
figures-smoke:
	$(GO) run -race ./cmd/figures -all -scale 0.1 -workers 4 > /dev/null
