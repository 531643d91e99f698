GO ?= go
SMOKE_DIR ?= /tmp/aggregathor-smoke
SMOKE_GOLDEN := internal/scenario/testdata/smoke.sha256

BENCH_JSON_DIR ?= .

.PHONY: all fmt vet lint check build test race fuzz smoke bench-json bench-compare loc ci clean

all: ci

# Fail when any Go file is not gofmt-clean (prints nothing when all are).
fmt:
	test -z "$$(gofmt -l .)"

vet:
	$(GO) vet ./...

# Run the aggrevet determinism suite (internal/analysis) over the whole
# module. Findings are fixed or justified with //aggrevet: directives of at
# least 10 characters — the build fails otherwise.
lint:
	$(GO) run ./cmd/aggrevet ./...

# The default local gate: static checks, then build and tests (the
# zero-allocation gates are tests), then smoke: every built-in campaign's
# bytes against the committed sha256s, the refactoring safety net.
check: fmt vet lint build test smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Short coverage of the one wire header (datagrams and TCP frames), the TCP
# stream reader, the reassembler and coalesced-message segment walk, the
# worker's model collector against its oracle, round-engine (plan, settlement, rejoin admission), column-pass and
# blocked-matmul fuzz targets beyond the seed corpus, of the four GAR assembly
# kernels and the float32 wire's conversions against their Go oracles
# (FuzzFillKeys, FuzzCompareExchange, FuzzMeanAroundWalk, FuzzBlockDistance,
# FuzzConvertFloat32), and of a network trained on a
# caller's vector against one loaded by copy. CI's fuzz job runs this target.
fuzz:
	$(GO) test ./internal/transport/ -run=NONE -fuzz=FuzzDecodePacket -fuzztime=20s
	$(GO) test ./internal/transport/ -run=NONE -fuzz=FuzzDecodeGradient -fuzztime=20s
	$(GO) test ./internal/transport/ -run=NONE -fuzz=FuzzTCPFrameStream -fuzztime=20s
	$(GO) test ./internal/transport/ -run=NONE -fuzz=FuzzReassembler -fuzztime=20s
	$(GO) test ./internal/transport/ -run=NONE -fuzz=FuzzModelCollector -fuzztime=20s
	$(GO) test ./internal/transport/ -run=NONE -fuzz=FuzzSegments -fuzztime=20s
	$(GO) test ./internal/ps/ -run=NONE -fuzz=FuzzRound -fuzztime=20s
	$(GO) test ./internal/tensor/ -run=NONE -fuzz=FuzzColumnPass -fuzztime=20s
	$(GO) test ./internal/tensor/ -run=NONE -fuzz=FuzzMatMul -fuzztime=20s
	$(GO) test ./internal/tensor/ -run=NONE -fuzz=FuzzFillKeys -fuzztime=20s
	$(GO) test ./internal/tensor/ -run=NONE -fuzz=FuzzCompareExchange -fuzztime=20s
	$(GO) test ./internal/tensor/ -run=NONE -fuzz=FuzzMeanAroundWalk -fuzztime=20s
	$(GO) test ./internal/tensor/ -run=NONE -fuzz=FuzzConvertFloat32 -fuzztime=20s
	$(GO) test ./internal/gar/ -run=NONE -fuzz=FuzzBlockDistance -fuzztime=20s
	$(GO) test ./internal/nn/ -run=NONE -fuzz=FuzzTrainOn -fuzztime=20s

# The refactoring safety net. Run every built-in campaign the golden file
# names (smoke, tcp-smoke, udp-smoke, model-loss-smoke, wire-smoke,
# async-smoke, churn-smoke; ~8 s together) twice, require the rerun to be
# byte-identical — campaigns are deterministic by contract, on every backend,
# at any drop rate — and check the bytes against the committed sha256
# (linux/amd64): a change that moves one byte of any campaign's JSON fails
# here. After an intentional change, regenerate the golden file with
#   cd $(SMOKE_DIR) && sha256sum *.json > $(CURDIR)/$(SMOKE_GOLDEN)
# and say in the PR exactly which bytes changed and why.
smoke:
	mkdir -p $(SMOKE_DIR)
	$(GO) build -o $(SMOKE_DIR)/scenario ./cmd/scenario
	for f in $$(awk '{print $$2}' $(SMOKE_GOLDEN)); do \
		$(SMOKE_DIR)/scenario -builtin $${f%.json} -out $(SMOKE_DIR)/$$f > /dev/null && \
		$(SMOKE_DIR)/scenario -builtin $${f%.json} -out $(SMOKE_DIR)/$$f.rerun > /dev/null && \
		cmp $(SMOKE_DIR)/$$f $(SMOKE_DIR)/$$f.rerun || exit 1; \
	done
	cd $(SMOKE_DIR) && sha256sum -c $(CURDIR)/$(SMOKE_GOLDEN)

# Time the GAR kernel engine (fresh + workspace aggregation, distance
# schedules) and write BENCH_aggregation.json — the perf trajectory to diff
# across commits on the same machine.
bench-json:
	$(GO) run ./cmd/bench -out $(BENCH_JSON_DIR)

# benchmark/README.md's comparison of two commits: ten alternating pairs of
# untraced runs, this checkout (B) against the one in PARENT (A, a clone of
# the parent commit), each side accumulating into its own -out directory,
# then the verdict table. WORKLOAD narrows the runs to one workload; a
# single-workload run leaves one report and no results.json, so those reports
# are gathered into the file -compare reads (same schema string as
# benchmark/main.go), and since -compare exits 1 over the workloads that did
# not run, only a "regressed" row fails the target then.
#   make bench-compare PARENT=/root/scratch/parent WORKLOAD=inproc-bulyan-100k
BENCH_CMP_DIR ?= $(CURDIR)/.bench_build/compare
# $(call bench_run,<checkout>,<side>): one run of a checkout into its side.
bench_run = (cd $(1) && bash benchmark/run.sh -trace 0 -out $(BENCH_CMP_DIR)/$(2) $(if $(WORKLOAD),\
	-workload $(WORKLOAD) && cat $(BENCH_CMP_DIR)/$(2)/run-$(WORKLOAD)-e2e.json >> $(BENCH_CMP_DIR)/$(2)/runs && echo >> $(BENCH_CMP_DIR)/$(2)/runs))
bench-compare:
	test -d "$(PARENT)/benchmark" || { echo "usage: make bench-compare PARENT=<checkout of the parent commit> [WORKLOAD=<name>]"; exit 2; }
	rm -rf $(BENCH_CMP_DIR)
	for i in 1 2 3 4 5; do \
		$(call bench_run,$(PARENT),A) && $(call bench_run,$(CURDIR),B) && \
		$(call bench_run,$(CURDIR),B) && $(call bench_run,$(PARENT),A) || exit 1; \
	done
ifdef WORKLOAD
	for side in A B; do \
		printf '{"schema":"aggregathor-benchmark/1","runs":[%s]}\n' "$$(paste -sd, $(BENCH_CMP_DIR)/$$side/runs)" > $(BENCH_CMP_DIR)/$$side/results.json; \
	done
endif
	bash benchmark/run.sh -compare $(BENCH_CMP_DIR)/A/results.json $(BENCH_CMP_DIR)/B/results.json $(if $(WORKLOAD),\
		| { tee $(BENCH_CMP_DIR)/table; ! grep -q regressed $(BENCH_CMP_DIR)/table; })

# The size trend ROADMAP item 2(e) tracks: non-test Go and assembly
# lines per package directory, committed files only, then the module total
# outside benchmark/.
loc:
	@git ls-files '*.go' '*.s' | grep -v '_test\.go$$' | grep -v '^benchmark/' | xargs wc -l | \
		awk '$$2 != "total" { n = split($$2, p, "/"); d = n > 1 ? substr($$2, 1, length($$2) - length(p[n]) - 1) : "."; s[d] += $$1; t += $$1 } \
		END { for (d in s) printf "%6d %s\n", s[d], d; printf "%6d total (non-test, outside benchmark/)\n", t }' | sort -k2

ci: fmt vet lint build race smoke

clean:
	$(GO) clean ./...
	rm -rf $(SMOKE_DIR)
