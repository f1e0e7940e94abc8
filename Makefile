GO ?= go

.PHONY: check build fmt vet test race race-quick stress-serve conformance serve-smoke benchmark benchmark-compare benchmark-smoke fuzz-smoke

check: fmt vet build test race-quick fuzz-smoke benchmark-smoke

# build also cross-compiles for arm64 so the non-SIMD kernel stubs
# (gemm_noasm.go, gemv32_noasm.go) stay in signature-lockstep with the
# amd64 assembly.
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

# The serving tests twenty times over under the race detector, verbose,
# into stress-serve.log (git-ignored), so an intermittent failure keeps
# its full output. Minutes long, so not part of check; run it while other
# work (a fuzzer, say) loads the cores to shake out timing-dependent
# failures.
stress-serve:
	$(GO) test -race -count=20 -v ./internal/serve/ > stress-serve.log 2>&1; \
	status=$$?; tail -n 3 stress-serve.log; exit $$status

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
# what the two-level goldens cover. TestCorpusRebuild rebuilds both
# corpora from their recipe and requires the committed files back. The
# last line replays the goldens from a GOAMD64=v3 build, where FMA
# instructions are available to the compiler: the goldens hold only while
# it never fuses a*b+c on amd64.
conformance:
	$(GO) test -v -run 'TestTraceConformance|TestStackConformance|TestCorpusRebuild' .
	GOAMD64=v3 $(GO) test -run 'TestTraceConformance' .

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

# Benchmark correctness smoke, the same locally and in CI: one second of
# the default serving workload through the driver's own entry point. Only
# the exit status counts — every stream's verdict hash must equal the
# sequential reference and nothing may be shed or dropped; a shared runner
# cannot time anything, so no number is gated here. Then the same smoke on
# the paper-sized model: trains the 2x256 LSTM and checks every stream's
# hash against the sequential reference — the one place the multi-stream
# packed kernel meets H = 256 end to end. Last, the one workload that runs
# the promoted window levels (bf4, pca, gmm, iforest, bayesnet, svdd, ae)
# through the driver's entry point, traced so the per-stage layer walk runs
# too (a few seconds; exit status only, like the others).
benchmark-smoke:
	bash benchmark/run.sh --workload serve-replay-default --seconds 1 --trace 0
	bash benchmark/run.sh --workload engine-wide-f64 --seconds 1 --trace 0
	bash benchmark/run.sh --workload offline-all-levels --seconds 1 --trace 1

# Short coverage-guided runs of the Modbus codec fuzzers, seeded from the
# golden corpus frames (decode→encode must stay stable, no panics on
# arbitrary bytes), of the serving daemon's two wire decoders (the ingest
# handshake and the subscriber's event: no panic, no allocation past the
# format's limits, decode→encode reproduces the input), and of the LSTM
# step's kernels: the f32 multi-stream packed product and the one-hot
# gather of both precisions, bitwise against their references on every
# kernel tier; and of the lock-step trainers — the classifier's and the
# reconstruction nets', all built on one LSTM trace — whose gradients and
# losses must equal the per-window oracles' bit for bit.
fuzz-smoke:
	$(GO) test ./internal/modbus/ -run=NONE -fuzz=FuzzPDUDecode -fuzztime=5s
	$(GO) test ./internal/modbus/ -run=NONE -fuzz=FuzzFrameDecode -fuzztime=5s
	$(GO) test ./internal/serve/ -run=NONE -fuzz=FuzzReadHello -fuzztime=5s
	$(GO) test ./internal/serve/ -run=NONE -fuzz=FuzzReadEvent -fuzztime=5s
	$(GO) test ./internal/mathx/ -run=NONE -fuzz=FuzzApplyBatch32 -fuzztime=5s
	$(GO) test ./internal/mathx/ -run=NONE -fuzz=FuzzOneHotGather -fuzztime=5s
	$(GO) test ./internal/nn/ -run=NONE -fuzz=FuzzReconTrainBatch -fuzztime=5s
