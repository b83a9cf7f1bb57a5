# Makefile — the same entry points CI uses, so humans and the pipeline
# never drift apart. `make help` lists targets.

GO      ?= go
PKGS    ?= ./...
COVER   ?= coverage.out

.PHONY: all build test race race-client bench bench-json bench-smoke bench-pairs profile fuzz sim-explore fmt fmt-check vet doclint seemore-vet lint lint-fix cover clean help

SIM_SEEDS ?= 200

all: build test ## build everything, then run the tests

build: ## compile every package and command
	$(GO) build $(PKGS)

test: ## run the full test suite
	$(GO) test $(PKGS)

race: ## run the test suite under the race detector
	$(GO) test -race $(PKGS)

race-client: ## race-detect the client/coordination layers (fast iteration gate)
	$(GO) test -race ./internal/client ./internal/cluster ./internal/placement ./internal/txn

bench: ## regenerate the paper's figures/tables via the root benchmarks
	$(GO) test -bench=. -benchtime=1x -run=^$$ .

bench-json: ## machine-readable sweeps → BENCH_pipeline/shard/txn/readmix/reshard.json (CI artifacts)
	$(GO) run ./cmd/seemore-bench -exp ablation-pipeline \
		-measure 200ms -warmup 50ms -clients 1,8 -json BENCH_pipeline.json
	$(GO) run ./cmd/seemore-bench -exp ablation-shard \
		-measure 300ms -warmup 80ms -shards 1,2,4 -shard-clients 48 -json BENCH_shard.json
	$(GO) run ./cmd/seemore-bench -exp ablation-txn \
		-measure 300ms -warmup 80ms -shards 1,2,4 -shard-clients 32 -json BENCH_txn.json
	$(GO) run ./cmd/seemore-bench -exp ablation-readmix \
		-measure 300ms -warmup 80ms -shard-clients 48 -json BENCH_readmix.json
	$(GO) run ./cmd/seemore-bench -exp ablation-reshard \
		-measure 300ms -warmup 80ms -shard-clients 24 -json BENCH_reshard.json

bench-smoke: ## vet, test and seemore-vet the repo benchmark (benchmark/ is its own module, so ./... at the root never compiles it), and run the crypto, seal, record-set and frame-read microbenchmarks once so their allocs/op pins cannot rot
	cd benchmark && $(GO) vet ./... && $(GO) test ./... && $(GO) run repro/cmd/seemore-vet ./...
	$(GO) test ./internal/crypto ./internal/message ./internal/replica ./internal/transport -run '^$$' -bench 'Tag|Sign|Verify$$|Seal$$|VerifyRecords|ReadFrame' -benchtime=1x

PAIRS ?= 10

bench-pairs: ## judge a change: PAIRS alternated runs of WORKLOAD at BASE (required: the parent revision) and at this working tree; prints medians [q1–q3], wins and the parent-IQR test per end-to-end metric
	bash scripts/bench-pairs.sh $(WORKLOAD) $(PAIRS) $(BASE)

profile: ## CPU+heap profile one pipeline sweep → cpu.pprof / mem.pprof (inspect with `go tool pprof`)
	$(GO) run ./cmd/seemore-bench -exp ablation-pipeline \
		-measure 200ms -warmup 50ms -clients 8 \
		-cpuprofile cpu.pprof -memprofile mem.pprof

fuzz: ## fuzz the untrusted-input decoders briefly (wire codec + KV state machine + placement map + linearizability checker + NEW-VIEW check)
	$(GO) test -run='^$$' -fuzz=FuzzDecode$$ -fuzztime=15s ./internal/message
	$(GO) test -run='^$$' -fuzz=FuzzDecodeRequest -fuzztime=5s ./internal/message
	$(GO) test -run='^$$' -fuzz=FuzzKVApply -fuzztime=10s ./internal/statemachine
	$(GO) test -run='^$$' -fuzz=FuzzPlacement -fuzztime=10s ./internal/placement
	$(GO) test -run='^$$' -fuzz=FuzzLinearizable -fuzztime=15s ./internal/sim
	$(GO) test -run='^$$' -fuzz=FuzzNewView -fuzztime=15s ./internal/replica

sim-explore: ## sweep SIM_SEEDS deterministic-simulation seeds (failures print a one-line reproduction)
	$(GO) test ./internal/sim -run TestSimSeed -sim.seeds $(SIM_SEEDS) -timeout 60m

fmt: ## gofmt all source in place
	gofmt -w .

fmt-check: ## fail if any file needs gofmt (CI gate)
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet: ## stock go vet
	$(GO) vet $(PKGS)

seemore-vet: ## the custom invariant analyzers (clockcheck, simdet, errsticky)
	$(GO) run ./cmd/seemore-vet $(PKGS)

lint: fmt-check vet doclint seemore-vet ## the full static-analysis umbrella (CI lint gate)
	@if command -v staticcheck >/dev/null 2>&1; then \
		echo "staticcheck $(PKGS)"; staticcheck $(PKGS); \
	else echo "staticcheck not installed; skipping (CI runs it)"; fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		echo "govulncheck $(PKGS)"; govulncheck $(PKGS); \
	else echo "govulncheck not installed; skipping (CI runs it)"; fi

lint-fix: fmt ## apply the automatic fixes (gofmt), then re-run the lint gate
	$(MAKE) lint

doclint: ## fail if any internal package lacks a package comment (godoc gate)
	@missing=0; for d in internal/*/; do \
		pkg=$$(basename $$d); \
		grep -qs "^// Package $$pkg " $$d*.go || { echo "missing package doc: $$d"; missing=1; }; \
	done; \
	for d in ./internal/core ./internal/replica ./internal/message ./internal/config; do \
		$(GO) doc $$d >/dev/null || missing=1; \
	done; \
	exit $$missing

cover: ## run tests with coverage and print the summary
	$(GO) test -coverprofile=$(COVER) $(PKGS)
	$(GO) tool cover -func=$(COVER) | tail -1

clean: ## remove build artifacts
	rm -f $(COVER) cpu.pprof mem.pprof
	$(GO) clean

help: ## show this help
	@grep -E '^[a-z-]+:.*##' $(MAKEFILE_LIST) | \
		awk -F':.*## ' '{printf "  %-10s %s\n", $$1, $$2}'
