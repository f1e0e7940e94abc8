GO ?= go

.PHONY: check build fmt vet test race race-quick conformance serve-smoke bench bench-json bench-serve bench-smoke bench-stack bench-train benchmark benchmark-compare fuzz-smoke

check: fmt vet build test race-quick fuzz-smoke bench-smoke

# build also cross-compiles for arm64 so the non-SIMD kernel stubs
# (gemm_noasm.go) stay in signature-lockstep with the amd64 assembly.
build:
	$(GO) build ./...
	GOARCH=arm64 $(GO) build ./...

fmt:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Full tree under the race detector (the training integration tests make
# this take a few minutes); race-quick covers the concurrency-heavy engine
# with full tests and everything else in short mode.
race:
	$(GO) test -race ./...

# The -short sweep already covers internal/trace and the root golden-trace
# conformance tests under -race (neither Short-skips); the explicit
# conformance line below guards that coverage against a future Short-gate.
# The TestTraceConformance pattern also matches TestTraceConformanceF32, so
# the f32 verdict-parity suite runs under -race here as well. Keep -race on
# this quick subset only — a full -race sweep takes minutes on the 1-CPU CI
# runner.
race-quick:
	$(GO) test -race -short ./...
	$(GO) test -race ./internal/engine/
	$(GO) test -race -short ./internal/serve/
	$(GO) test -race -run 'TestTraceConformance' .

# Boot the serving daemon on ephemeral ports and replay both committed
# golden corpora into it over real TCP — concurrent connections, one
# mid-replay hot-swap through the HTTP ops endpoint, SIGTERM drain — and
# require every stream's verdict sequence to match the goldens byte for
# byte. This is the CI smoke gate for cmd/icsserved.
serve-smoke:
	$(GO) run ./cmd/icsserved -selftest

# The scenario-matrix golden conformance suite alone: both testbeds x
# {sequential, engine} x {f64, f32} precision tiers x {avx512, avx2,
# scalar} kernel tiers against the committed corpora — the f32 tier must
# reproduce the f64 goldens bytewise (verdict parity), on every kernel
# tier, including mixed-precision streams sharing engine shards — plus the
# mixed-scenario engine and cross-scenario parity gates, and the stack
# conformance suite, which locks sequential==engine bitwise equivalence
# for composed level stacks (freshly trained bloom,pca,lstm under
# majority-vote, dynamic-k, all fusion policies, and the reconstruction
# stages ae/seq2seq/cnn with watertank MPCI/MFCI detection parity) beyond
# what the two-level goldens cover.
conformance:
	$(GO) test -v -run 'TestTraceConformance|TestStackConformance' .

bench: bench-stack
	$(GO) test -run=NONE -bench=. -benchmem .

# Detection-stack benchmark: per-level time share and sequential vs engine
# throughput across level stacks (bloom, bloom+lstm, bloom+pca+lstm,
# all-levels, bloom+lstm+ae). Results are recorded in BENCH.md.
bench-stack:
	$(GO) run ./cmd/icsbench -stackbench -packages 8000

# Machine-readable benchmark records: the -stackbench matrix at both
# precision tiers plus the -kernelbench kernel × precision × tier matrix,
# as JSON. The BENCH_*.json files are committed alongside BENCH.md so
# tooling can diff throughput across PRs without scraping tables.
bench-json:
	$(GO) run ./cmd/icsbench -stackbench -packages 8000 -json > BENCH_STACK.json
	$(GO) run ./cmd/icsbench -stackbench -packages 8000 -precision f32 -json > BENCH_STACK_F32.json
	$(GO) run ./cmd/icsbench -kernelbench -json > BENCH_KERNELS.json
	$(GO) run ./cmd/icsbench -servebench -json > BENCH_SERVE.json

# Wire-to-verdict serving benchmark: a real serve.Server on loopback TCP
# under 64 concurrent replay connections and 8 verdict subscribers, the
# per-package admission path vs the burst path, with cross-mode verdict
# parity enforced. Results are recorded in BENCH.md / BENCH_SERVE.json.
bench-serve:
	$(GO) run ./cmd/icsbench -servebench

# The gated wire-to-verdict benchmark (benchmark/README.md, BENCHMARK.json):
# all five workloads, end-to-end metrics only, into benchmark/out/result.json.
# Copy that file aside, change code, run again, and hand both to
# benchmark-compare, which exits non-zero when a metric worsens beyond its
# bound: make benchmark-compare OLD=old.json NEW=benchmark/out/result.json
benchmark:
	bash benchmark/run.sh --trace 0

benchmark-compare:
	@test -n "$(OLD)" -a -n "$(NEW)" || { echo "usage: make benchmark-compare OLD=old.json NEW=new.json"; exit 2; }
	$(GO) run ./benchmark -compare $(OLD) $(NEW)

# Short coverage-guided runs of the Modbus codec fuzzers, seeded from the
# golden corpus frames (decode→encode must stay stable, no panics on
# arbitrary bytes).
fuzz-smoke:
	$(GO) test ./internal/modbus/ -run=NONE -fuzz=FuzzPDUDecode -fuzztime=5s
	$(GO) test ./internal/modbus/ -run=NONE -fuzz=FuzzFrameDecode -fuzztime=5s

# A quick engine-throughput smoke: proves the batched multi-stream path
# still works and reports pkg/s without the full benchmark suite, plus a
# small stack benchmark exercising the per-stage-kind engine dispatch and
# the per-kernel microbenchmarks (dense vs one-hot × kernel tiers).
bench-smoke:
	$(GO) test -run=NONE -bench='BenchmarkEngineThroughput/engine/shards=8/streams=256' -benchtime=50x .
	$(GO) run ./cmd/icsbench -stackbench -packages 4000
	$(GO) run ./cmd/icsbench -kernelbench
	$(GO) run ./cmd/icsbench -servebench -conns 16 -records 500

# Training-throughput smoke: batched vs reference gradient engine at the
# paper's 2x256 model scale (proves the bitwise equivalence untimed, then
# reports windows/s for both engines).
bench-train:
	$(GO) test -run=NONE -bench=BenchmarkTrainThroughput -benchtime=2x .
