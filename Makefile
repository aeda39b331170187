# Build, test, and benchmark entry points.

GO ?= go

.PHONY: all build test race bench bench-query bench-cache bench-spill bench-smoke fuzz-smoke profile-smoke spill-smoke fmt vet

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race . ./internal/core ./internal/hyracks ./internal/frame ./internal/cluster ./internal/jsonparse ./internal/index ./internal/item ./internal/runtime ./internal/spill

fmt:
	gofmt -l .

vet:
	$(GO) vet ./...

# bench runs the scan skew benchmark at the quick scale and writes the
# BENCH_scan.json artifact, the parse-kernel benchmark writing
# BENCH_parse.json, then the Go microbenchmarks with allocation reporting.
# Add VXQ_SCAN_FULL=1 and `go run ./cmd/benchscan -full` for the acceptance
# scale (1x64 MiB + 31x2 MiB).
bench:
	$(GO) run ./cmd/benchscan -out BENCH_scan.json
	$(GO) run ./cmd/benchscan -parse -out BENCH_parse.json
	$(GO) run ./cmd/benchscan -query -out BENCH_query.json
	$(GO) test -run='^$$' -bench='Scan|FramePath|Project|Skip|Lexer|GroupBy|HashShuffle|HashJoin' -benchmem ./internal/bench

# bench-query measures the binary tuple kernel (encoded-key group-by, hash
# shuffle and hash join against the eager reference), writing
# BENCH_query.json. TestQueryKernelBounds pins the committed bounds.
bench-query:
	$(GO) run ./cmd/benchscan -query -out BENCH_query.json

# bench-cache measures cold vs warm repeated queries across the persistence
# layers — zone-map index sidecars, the compiled-plan cache, the result
# cache — writing BENCH_cache.json. The run itself enforces the acceptance
# gates (warm >= 3x cold, every warm repeat a plan or result hit, file and
# morsel skips from BuildIndex sidecars on the selective case) and fails if
# any regresses; TestCacheBenchSmoke runs the same gates in-process at a
# reduced scale.
bench-cache:
	$(GO) run ./cmd/benchscan -cache -out BENCH_cache.json

# bench-spill measures the out-of-core operators — grace-hash group-by and
# join, external merge sort — against their in-memory runs on an input ~4x
# over the per-operator budget, writing BENCH_spill.json. The harness enforces
# the acceptance gates (byte-identical results, real spilling, accountant
# balance zero, high-water no worse than in-memory, empty spill directory);
# TestSpillBenchSmoke runs the same gates in-process at a reduced scale.
bench-spill:
	$(GO) run ./cmd/benchscan -spill -out BENCH_spill.json

# spill-smoke is the CI guard for the out-of-core layer: the bigger-than-
# budget differential tests (group-by/join/sort spilled vs in-memory,
# byte-identical, temp-file hygiene, accountant balance) plus the in-process
# benchmark gates.
spill-smoke:
	$(GO) test -run 'TestSpill' -v ./internal/hyracks ./internal/bench
	$(GO) test ./internal/spill

# bench-smoke is the CI guard: every benchmark must still run (one
# iteration), catching bit-rot in the harness without burning CI minutes.
bench-smoke:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...

# profile-smoke is the CI guard for the observability layer: the smoke test
# profiles Q0-Q2 on both schedules and validates the trace span schema,
# then the CLI leg generates a small collection and runs Q1 with
# -profile -trace end to end, checking a trace file comes out.
profile-smoke:
	$(GO) test -run TestProfileSmoke -v ./internal/bench
	rm -rf /tmp/vxq-profile-smoke && mkdir -p /tmp/vxq-profile-smoke
	$(GO) run ./cmd/gendata -out /tmp/vxq-profile-smoke/sensors -files 4 -records 24 -split
	$(GO) run ./cmd/vxq -mount /sensors=/tmp/vxq-profile-smoke/sensors -partitions 2 \
		-profile -trace /tmp/vxq-profile-smoke/trace.json \
		'for $$r in collection("/sensors")("root")()("results")() where $$r("dataType") eq "TMIN" group by $$date := $$r("date") return count($$r("station"))' \
		>/dev/null
	test -s /tmp/vxq-profile-smoke/trace.json

# fuzz-smoke runs the structural-kernel fuzzers briefly: the skip
# differential (structural-index skip vs token-level reference, cross-checked
# against encoding/json, plus the raw skip's chunk invariance against the
# in-memory lexer) and the encoded scan's transcoder against encoding the
# parsed items. Seeds under testdata/fuzz are always replayed.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzRawSkipDifferential -fuzztime=10s ./internal/jsonparse
	$(GO) test -run='^$$' -fuzz=FuzzEncodedScan -fuzztime=10s ./internal/jsonparse
