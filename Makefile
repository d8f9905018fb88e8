GO ?= go
FUZZTIME ?= 10s

.PHONY: all build vet fmt-check lint inline-check fma-check test race paper-check ledgerbench-check examples-smoke bench-go flame fuzz-smoke loc tier1 clean

all: tier1

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# fmt-check fails when any Go file outside testdata/ (ledgerbench/
# included) is not gofmt-clean, and names the files. Hidden directories
# (.git, .bench_build, .flame) are skipped.
fmt-check:
	@out="$$(find . -path './.*' -prune -o -path '*/testdata' -prune -o -name '*.go' -print | xargs gofmt -l)"; \
	if [ -n "$$out" ]; then echo "fmt-check: not gofmt-clean:"; echo "$$out"; exit 1; fi

# lint is the domain gate: go vet, the gofmt check, and esplint, the
# in-tree analyzer suite that proves the replay/plane/fault contracts
# (complete in-place resets, an immutable workload plane, a total error
# taxonomy, wrap-safe sentinel matching). Any diagnostic fails the
# build; see DESIGN.md §12 for the annotation grammar that governs each
# check.
lint: vet fmt-check
	$(GO) run ./cmd/esplint ./...

# inline-check fails when a trace.Cursor method (or Op method) that the
# replay loops call per instruction stops inlining: a decode call per
# instruction spills the loop's registers and cost 1.40-1.63x replay
# time when it was measured.
INLINED = '(*Cursor).Op' '(*Cursor).Addr' '(*Cursor).Target' '(*Cursor).Skip' \
	'(*Cursor).Len' 'Op.Kind' 'Op.SetBranch'
inline-check:
	@inl="$$($(GO) build -gcflags=-m ./internal/trace 2>&1 | sed -n 's/^.*: can inline //p')"; \
	for f in $(INLINED); do \
		printf '%s\n' "$$inl" | grep -qxF "$$f" || { echo "inline-check: trace.$$f no longer inlines"; exit 1; }; \
	done

# fma-check fails when an arm64 build of a model package fuses a
# floating-point multiply and add into one instruction (FMADDD, FMSUBD,
# FNMADDD, FNMSUBD). A fused product skips a rounding, so results would
# differ from amd64's, which never fuses; an explicit float64()
# conversion around the product prevents it on every architecture.
FMA_PKGS = ./internal/cpu ./internal/energy ./internal/core ./internal/runahead \
	./internal/mem ./internal/branch ./internal/prefetch
fma-check:
	@asm="$$(GOARCH=arm64 $(GO) build -gcflags=-S $(FMA_PKGS) 2>&1)" || { printf '%s\n' "$$asm" | tail -20; echo "fma-check: arm64 build failed"; exit 1; }; \
	fused="$$(printf '%s\n' "$$asm" | grep -E '[[:space:]]F(N?MADD|N?MSUB)D[[:space:]]')"; \
	if [ -n "$$fused" ]; then echo "fma-check: fused multiply-adds in an arm64 build:"; printf '%s\n' "$$fused"; exit 1; fi

test:
	$(GO) test ./...

# race is the whole suite under the race detector, uncached: the chaos
# soaks, leak, overload, cluster and scheduling tests all run here. For
# a focused local run, narrow it: go test -race -run TestChaos ./internal/serve
# It skips the paper record, which paper-check runs without the race
# detector (see below).
race:
	$(GO) test -race -count=1 -skip '^TestPaperRecord$$' ./...

# paper-check is the executable paper record: cmd/espbench's
# TestPaperRecord regenerates every figure `go run ./cmd/espbench`
# prints and fails unless it equals EXPERIMENTS.md's "Figures (measured
# output)" block byte for byte (the trailing engine: line, reuse
# counters and wall times, aside). It takes about 12 s on a 2-vCPU
# host and runs without the race detector, under which it took 138 s
# (11x): the only concurrency it drives, RunAll's figure workers sharing
# one Runner, is what the root package's golden parallel sweep already
# races.
paper-check:
	$(GO) test -count=1 -run '^TestPaperRecord$$' ./cmd/espbench

# ledgerbench-check vets and tests the benchmark of record, its own
# module over the cluster, serve, sim, tenantq, fault, checkpoint and
# trace APIs, which the root module's build and tests never compile.
ledgerbench-check:
	cd ledgerbench && $(GO) vet . && $(GO) test .

# examples-smoke runs every program under examples/, the public
# facade's documented idioms, discards its output, and fails when one
# exits non-zero.
examples-smoke:
	@for d in examples/*/; do \
		$(GO) run ./$$d > /dev/null || { echo "examples-smoke: $$d exited non-zero"; exit 1; }; \
	done

# bench-go runs the Go benchmark suite, and no tests: warm replay
# throughput per machine class and warm reuse against rebuild-per-cell.
# The paper's figures come from `go run ./cmd/espbench`; the end-to-end
# and per-layer numbers live in ledgerbench/ (see ledgerbench/README.md).
bench-go:
	$(GO) test -run '^$$' -bench=. -benchmem .

# flame profiles warm two-plane replay (BenchmarkSweepReuse) and renders
# the top of the hot path; pass PPROF_FLAGS=-http=:8080 for the
# interactive flame graph. The profile and test binary land in the
# ignored .flame/ directory.
flame:
	mkdir -p .flame
	$(GO) test -run='^$$' -bench='^BenchmarkSweepReuse$$' -o .flame/espsim.test -cpuprofile .flame/cpu.pprof .
	$(GO) tool pprof $(PPROF_FLAGS) -top -nodecount=20 .flame/espsim.test .flame/cpu.pprof

# fuzz-smoke gives every fuzz target a short adversarial shake on each
# gate run (FUZZTIME per target); longer campaigns raise FUZZTIME. CI
# runs this target with FUZZTIME=30s, so this is the one list of fuzz
# targets: a new one is added here only.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzReadFile -fuzztime=$(FUZZTIME) ./internal/trace
	$(GO) test -run='^$$' -fuzz=FuzzRoundTrip -fuzztime=$(FUZZTIME) ./internal/trace
	$(GO) test -run='^$$' -fuzz=FuzzTapeRoundTrip -fuzztime=$(FUZZTIME) ./internal/trace
	$(GO) test -run='^$$' -fuzz=FuzzRunRequest -fuzztime=$(FUZZTIME) ./internal/serve
	$(GO) test -run='^$$' -fuzz=FuzzJournalReplay -fuzztime=$(FUZZTIME) ./internal/checkpoint
	$(GO) test -run='^$$' -fuzz=FuzzSchedulerConfig -fuzztime=$(FUZZTIME) ./internal/eventq
	$(GO) test -run='^$$' -fuzz=FuzzSourceWorkload -fuzztime=$(FUZZTIME) ./internal/sim
	$(GO) test -run='^$$' -fuzz=FuzzCacheOracle -fuzztime=$(FUZZTIME) ./internal/mem

# loc prints the root module's non-test Go lines: every .go file git
# tracks or would add (untracked, not ignored) but tests, testdata/ and
# the ledgerbench module. With BASE=<rev> it also prints the lines added
# and removed since that revision, an untracked file's lines all added:
# the net delta a simplicity change reports (make loc BASE=HEAD counts
# uncommitted work against the last commit).
LOC_PATHS = '*.go' ':(exclude)*_test.go' ':(exclude)*/testdata/*' ':(exclude)ledgerbench'
loc:
	@git ls-files --cached --others --exclude-standard -- $(LOC_PATHS) | xargs -r cat | wc -l | sed 's/$$/ non-test Go lines/'
	@if [ -n "$(BASE)" ]; then \
		new=$$(git ls-files --others --exclude-standard -- $(LOC_PATHS) | xargs -r cat | wc -l); \
		git diff --numstat $(BASE) -- $(LOC_PATHS) | \
		awk -v new=$$new '{a += $$1; d += $$2} END {a += new; printf "+%d/-%d against $(BASE) (net %+d)\n", a, d, a - d}'; fi

# tier1 is the robustness gate: everything must be green before merge.
# lint subsumes vet and adds the domain analyzers, so a contract
# violation fails the gate before any test runs; inline-check keeps the
# replay loops' decode inlined and fma-check the model's float rounding
# the same on every architecture; race then runs every test uncached, so
# a stale pass cannot satisfy it; paper-check keeps every figure equal to
# the EXPERIMENTS.md record; ledgerbench-check keeps an API change from
# breaking the benchmark unnoticed, and examples-smoke the examples.
tier1: lint build inline-check fma-check race paper-check ledgerbench-check examples-smoke fuzz-smoke

clean:
	$(GO) clean ./...
