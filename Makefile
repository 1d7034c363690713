# prisim build/test/lint entry points. CI runs the same commands; see
# .github/workflows/ci.yml.

GO ?= go

# Pinned external linter versions (installed on demand in CI's lint job;
# locally they are used only if already on PATH — the dev container has no
# network, so `make lint` degrades gracefully to prilint + vet).
STATICCHECK_VERSION ?= 2025.1.1
GOVULNCHECK_VERSION ?= v1.1.4

.PHONY: build test race bench benchgate sweepgate ffgate fuzz lint prilint lintprog staticcheck govulncheck

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -timeout 20m . ./internal/harness ./internal/ooo ./internal/service ./internal/fabric

bench:
	$(GO) test -bench=. -benchtime=1x -benchmem ./...

# fuzz is the fuzz smoke CI runs on every push: the lexer/parser must
# never panic and every failure must carry positioned diagnostics, the
# priscan analyzers must never panic or produce findings outside the code
# segment on anything the assembler accepts, and every matrix spec the
# coordinator accepts must normalize idempotently and expand to distinct
# points. FUZZTIME=5m for a longer local soak.
FUZZTIME ?= 30s
fuzz:
	$(GO) test ./internal/asm -run '^$$' -fuzz '^FuzzAssemble$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/asm/analysis -run '^$$' -fuzz '^FuzzAnalyze$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/fabric -run '^$$' -fuzz '^FuzzMatrix$$' -fuzztime $(FUZZTIME)

# benchgate is the kernel throughput regression gate: the steady-state
# kernel benchmark must sustain at least 80% of the floor recorded in
# BENCH_kernel.json (best of 3 runs, so shared-machine jitter doesn't flake).
benchgate:
	$(GO) test ./internal/ooo -run '^$$' -bench BenchmarkKernelSteadyState \
		-benchtime 2s -count 3 | $(GO) run ./cmd/benchgate -frac 0.8

# sweepgate is the cross-run sweep throughput gate: a cold fig8-mix sweep
# (every integer workload × 8 policy points, default fast-forward, snapshot
# layer on) must sustain at least 70% of the points/s floor recorded in
# BENCH_harness.json (best of 3 sweeps). It catches the snapshot cache
# silently degrading to per-point fast-forward replay.
sweepgate:
	$(GO) test ./internal/harness -run '^$$' -bench BenchmarkSweepFig8Mix \
		-benchtime 1x -count 3 | $(GO) run ./cmd/benchgate \
		-baseline BENCH_harness.json -bench BenchmarkSweepFig8Mix \
		-metric points/s -floorkey sweep_points_per_sec_floor -frac 0.7

# ffgate is the fast-forward throughput gate: BenchmarkFastForward (the
# emulator, branch predictor and cache hierarchy, one pass each per
# instruction) must sustain at least 70% of the instr/s floor recorded in
# BENCH_kernel.json (best of 3 runs). It catches the fast-forward loop
# falling back to a second decode, a by-value step report or a full set scan
# per cache access.
ffgate:
	$(GO) test ./internal/ooo -run '^$$' -bench BenchmarkFastForward \
		-benchtime 1s -count 3 | $(GO) run ./cmd/benchgate \
		-bench BenchmarkFastForward -metric instr/s \
		-floorkey fast_forward_instr_per_sec_floor -frac 0.7

# lint fails on any file gofmt would change, then runs the project's own
# analyzer suite (always available: it is part of this module) plus vet, then
# the pinned external linters when present.
lint: prilint
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt -l: these files need gofmt -w:"; echo "$$unformatted"; exit 1; \
	fi
	$(GO) vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		echo "staticcheck ./..."; staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI installs $(STATICCHECK_VERSION))"; \
	fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		echo "govulncheck ./..."; govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping (CI installs $(GOVULNCHECK_VERSION))"; \
	fi

prilint:
	$(GO) run ./cmd/prilint ./...

# lintprog runs priscan — the guest-program static analyzer — over every
# built-in workload image and every example program the repo ships. The
# workload sweep is warn-only (four reasoned dead-write findings are pinned
# by TestWorkloadSweep; the images cannot change without invalidating the
# fig8 golden hashes), but the user-facing fixture programs must be clean.
lintprog:
	$(GO) run ./cmd/priscan -workloads
	$(GO) run ./cmd/priscan -Werror internal/asm/testdata/*.s

staticcheck:
	$(GO) install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)
	staticcheck ./...

govulncheck:
	$(GO) install golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION)
	govulncheck ./...
