# Tier-1 verification flow. The benchmark lives in bench/ (ftpbench; see
# bench/README.md); the microbenchmarks run with `go test -bench`.
#
#   make tier1   — what every PR must keep green: build, vet and gofmt,
#                  full test suite, race-mode tests on the scan-path
#                  packages, the benchmark module's vet and tests, and one
#                  run of the pipe and listing microbenchmarks.
#   make chaos   — the fault-injection suite under the race detector:
#                  hostile servers, malformed protocol input, budget and
#                  degradation paths.
#   make fuzz-smoke — every native fuzz target for FUZZTIME each (default
#                  10s); not part of tier1.

GO ?= go

# Packages whose hot paths are exercised by many goroutines; always raced.
# The honeypot accumulator and attacker fleet are mutated by hundreds of
# concurrent sessions, so they belong here too, and so does the enumerator,
# whose fleet workers pass control-channel wrappers from host to host.
RACE_PKGS = ./internal/simnet ./internal/zmap ./internal/worldgen ./internal/obs \
	./internal/honeypot ./internal/attacker ./internal/enumerator

# Packages holding the chaos suite: fault injection, hostile worlds, the
# enumerator's retry/degradation layer, the identification stage's hostile
# banners (drip, stall, mid-banner EOF, garbage), and the end-to-end
# hostile census.
CHAOS_PKGS = ./internal/simnet ./internal/ftp ./internal/listparse \
	./internal/enumerator ./internal/worldgen ./internal/identify \
	./internal/core ./internal/attacker

.PHONY: build test vet vet-obs race race-full race-sharded race-server bench-check bench-micro tier1 chaos fuzz-smoke smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# vet also fails on any Go file gofmt would rewrite.
vet:
	$(GO) vet ./...
	@unformatted=$$(find . -name '*.go' -not -path './.bench_build/*' | xargs gofmt -l); \
	if [ -n "$$unformatted" ]; then echo "gofmt -l lists:"; echo "$$unformatted"; exit 1; fi

# The metrics layer sits on every hot path; vet it on its own so a
# tier1 failure names the package directly.
vet-obs:
	$(GO) vet ./internal/obs

race:
	$(GO) test -race $(RACE_PKGS)

# Extended race coverage: the pipeline, the analysis layer, and
# the delta engine.
race-full: race
	$(GO) test -race ./internal/core ./internal/analysis ./internal/delta

# Sharded census under the race detector: N concurrent shard pipelines
# share one world, collector, stream sink, and metrics registry, and the
# aggregator snapshots merge across them — exactly the surfaces a data
# race would corrupt silently. The checkpoint/resume suite rides along:
# mid-scan halts, periodic quiescent checkpoints, and resume validation
# all cut across those same shared structures.
race-sharded:
	$(GO) test -race -run 'TestSharded|TestSnapshot|TestAggregatorMerge|TestSynced|TestKeepOpen|TestChildCounter|TestKillAndResume|TestPeriodicCheckpoint|TestResumeValidation|TestCheckpoint' \
		./internal/core ./internal/analysis ./internal/dataset ./internal/obs

# Server core under the race detector: pooled sessions, the connection
# governor's per-session idle timers, token buckets, and the served vfs tree
# with its listing cache are all mutated by concurrent session goroutines.
race-server:
	$(GO) test -race ./internal/ftpserver ./internal/honeypot ./internal/vfs

# The benchmark is its own module (bench/go.mod), so the root `go test ./...`
# never compiles it: vet and test it here, so an API break it depends on
# fails tier-1 instead of the benchmark run.
bench-check:
	$(GO) -C bench vet ./...
	$(GO) -C bench test ./...

# The per-connection, per-address probe, per-host enumeration, per-listing,
# listing-cache, ledger-codec, analysis-fold and banner-classification
# microbenchmarks, run once each so a benchmark that no longer compiles or
# fails at run time fails tier-1. Their numbers come from `go test -bench`
# with a real -benchtime.
bench-micro:
	$(GO) test -run '^$$' -bench 'BenchmarkAblationPipe|BenchmarkProbeFanout|BenchmarkEnumerateSingleHost' -benchtime 1x .
	$(GO) test -run '^$$' -bench 'BenchmarkAppendListing|BenchmarkListing' -benchtime 1x ./internal/vfs
	$(GO) test -run '^$$' -bench 'BenchmarkReadAll|BenchmarkWriterWrite' -benchtime 1x ./internal/dataset
	$(GO) test -run '^$$' -bench 'BenchmarkAggregatorObserve' -benchtime 1x ./internal/analysis
	$(GO) test -run '^$$' -bench 'BenchmarkClassify' -benchtime 1x ./internal/fingerprint

tier1: build vet vet-obs test race race-sharded race-server bench-check bench-micro smoke

# Observability smoke test: a real ftpcensus run with live progress must
# produce a parseable, non-empty metrics snapshot.
smoke:
	scripts/smoke.sh

# Chaos suite: every fault class must yield a classified partial record —
# no hangs, no silent host drops — with the race detector watching.
# KillAndResume belongs here too: it kills a census mid-scan over benign
# *and* hostile worlds and demands byte-identical recovery.
chaos:
	$(GO) test -race -run 'Chaos|Fault|Hostile|Benign|Malformed|Truncated|Oversized|MidReply|UnexpectedEOF|KillAndResume' $(CHAOS_PKGS)

# Fuzz smoke run, not part of tier1: each native fuzz target for FUZZTIME.
FUZZTIME ?= 10s
fuzz-smoke:
	GO=$(GO) FUZZTIME=$(FUZZTIME) scripts/fuzz-smoke.sh
