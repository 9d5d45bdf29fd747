GO ?= go

.PHONY: build test vet race bench bench-smoke bench-sim bench-check figs-check fuzz smoke directed-smoke sharedstate-smoke overload-smoke soak-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# vet also fails on any file gofmt would rewrite.
vet:
	$(GO) vet ./...
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# race is the full concurrency gate: vet plus every test under the race
# detector (the live transports and control plane are the concurrent paths,
# but scheduling everything keeps the gate honest).
race:
	$(GO) vet ./...
	$(GO) test -race ./...

bench:
	$(GO) test -bench . -benchtime 1x ./...

# bench-smoke builds and smoke-tests the performance ledger. bench/ is a
# module of its own, outside `go build ./...`, so nothing else notices when a
# refactor breaks what it imports.
bench-smoke:
	$(GO) vet -C bench .
	$(GO) test -C bench ./...

# bench-sim regenerates BENCH_sim.json: synthetic SWF replays at 2k/10k/
# 100k nodes, each case in a fresh child process for honest peak-RSS numbers.
bench-sim:
	$(GO) run ./cmd/ariabench -out BENCH_sim.json

# bench-check is the kernel's does-it-still-work smoke: the timer and
# cross-lane micro-benchmarks at a fixed iteration count, then the 2k/10k
# replays. Numbers are printed, not judged.
bench-check:
	$(GO) test ./internal/sim/ -run '^$$' -bench . -benchtime 10000x
	$(GO) run ./cmd/ariabench -quick -out BENCH_sim.ci.json

# figs-check is the figure oracle for the extension figures: it regenerates
# the figures named in FIGS with the command that made the checked-in
# artifacts and fails on any byte difference from results/. A refactor that
# must not move a number passes it unchanged. The default set, fig105-fig109
# (the plane counters' figures), takes ~23 min on 2 CPUs; the per-PR CI job
# runs the cheap set, FIGS="101 102 103 104", in about a minute.
FIGS ?= 105 106 107 108 109

figs-check:
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	$(GO) build -o "$$dir/ariaeval" ./cmd/ariaeval && \
	for f in $(FIGS); do \
		"$$dir/ariaeval" -fig $$f -runs 3 -out "$$dir/figs" -v=false >/dev/null || exit 1; \
	done && \
	for got in "$$dir"/figs/*; do \
		diff -u "results/$$(basename "$$got")" "$$got" || exit 1; \
	done && \
	echo "figs-check: $$(ls "$$dir/figs" | wc -l) artifacts match results/"

# fuzz gives the wire, journal, directory-digest, and gateway-body
# codecs a short adversarial shake, and drives the directory store against
# its reference copy (see internal/transport/codec_fuzz_test.go,
# internal/wal/codec_fuzz_test.go, internal/directory/codec_fuzz_test.go,
# internal/directory/store_fuzz_test.go, and cmd/ariagate/fuzz_test.go for
# the seed corpora).
fuzz:
	$(GO) test ./internal/transport/ -fuzz FuzzReadMessage -fuzztime 30s
	$(GO) test ./internal/transport/ -fuzz FuzzFrameCorruption -fuzztime 30s
	$(GO) test ./internal/transport/ -fuzz FuzzCodecDifferential -fuzztime 30s
	$(GO) test ./internal/wal/ -fuzz FuzzDecodeRecords -fuzztime 30s
	$(GO) test ./internal/wal/ -fuzz FuzzDecodeState -fuzztime 30s
	$(GO) test ./internal/directory/ -fuzz FuzzDecodeDigests -fuzztime 30s
	$(GO) test ./internal/directory/ -fuzz FuzzStoreDifferential -fuzztime 30s
	$(GO) test ./cmd/ariagate/ -fuzz FuzzParseSpecs -fuzztime 30s

# smoke mirrors the CI trace smokes: one traced repetition each of the
# self-healing churn and the crash-restart recovery scenarios, with the
# causal trace checker auditing every protocol invariant.
smoke:
	$(GO) run ./cmd/ariasim -scenario iChurnHeal -scale 0.06 -runs 1 -seed 1 -trace
	$(GO) run -race ./cmd/ariasim -scenario iCrashRestart -scale 0.06 -runs 1 -seed 1 -trace

# directed-smoke exercises the gossip-fed directory under churn with the
# race detector on; the trace checker audits the directed-discovery
# invariants over the full run.
directed-smoke:
	$(GO) run -race ./cmd/ariasim -scenario iDirectedChurn -scale 0.06 -runs 1 -seed 1 -trace

# sharedstate-smoke exercises the optimistic-commit arm under churn with
# the race detector on; the trace checker audits the commit invariants
# (retry bound, causal chains, exactly-one grant) over the full run.
sharedstate-smoke:
	$(GO) run -race ./cmd/ariasim -scenario iSharedStateChurn -scale 0.06 -runs 1 -seed 1 -trace

# overload-smoke is the live end of the overload-control plane: a traced
# saturation scenario under the race detector, then a real 5-process grid
# behind ariagate sustaining an ariaload campaign (race-enabled binaries,
# bounded queues, capped backoff). Writes BENCH_overload.json.
overload-smoke:
	$(GO) run -race ./cmd/ariasim -scenario iOverload -scale 0.06 -runs 1 -seed 1 -trace
	./scripts/overload_smoke.sh

# soak-smoke is the chaos plane's CI slice: ariasoak drives a real
# 8-daemon grid behind a fault-injecting proxy fabric through a seeded
# schedule of crashes, gray failures, partitions, and slow peers at two
# seeds, auditing execution, leak, directory, and convergence invariants
# live. Writes SOAK_seed<N>.json reports (~1 min per seed).
soak-smoke:
	./scripts/soak_smoke.sh
