#!/usr/bin/env bash
# CI gate, three passes:
#
#   1. plain Release (the seed tier-1 configuration): build + full ctest,
#      then the labeled subsets explicitly so the label wiring itself is
#      gated (tier1 = fast correctness, slow = randomized property sweeps,
#      stress = concurrency stress, fuzz = the fixed-budget mutational fuzz
#      drivers over the JSON reader, the serve wire and TETC payloads).
#   2. ASan+UBSan over the whole suite (-DTE_SANITIZE=address,undefined):
#      every simulated GPU kernel runs natively under host sanitizers, the
#      simulator's own MemSanitizer tests run instrumented, and the fuzz
#      drivers run their full budget instrumented.
#   3. TSan (-DTE_SANITIZE=thread) over the concurrency surface only --
#      the thread pool, the batch backends, the streaming scheduler (shared
#      table cache + lent pools), the stress suite, the te::serve layer,
#      and te::obs (per-thread metric shards). Only those test binaries
#      are built; `ctest -L` skips the label-less NOT_BUILT placeholders
#      of the rest.
#   4. observability gate: a bench_sshopm smoke run must emit a
#      BENCH_sshopm.json that passes the te-obs-v1 schema validator, and a
#      -DTE_OBS=OFF build must stay green (tier1) with bench_obs_overhead
#      proving the disabled registry records nothing.
#   5. persistence gate (te::io): round-trip the legacy fixture format
#      through a TETC container byte-identically, strict-validate every
#      produced file with tetc_check (including a multi-chunk streamed
#      batch-result section from tensoreig_cli), prove the disk warm-start path
#      (bench_kernels must load every shape's KernelTables from a packed
#      container -- the te::obs counter assertion in --require-warm-start
#      fails the run if anything is rebuilt), and exercise the scheduler's
#      kill/checkpoint/resume cycle end to end with a bitwise cross-check.
#   6. static-verification gate (te::analysis): te_analyze --all must prove
#      every registered shape x tier x lane width correct (class coverage,
#      multinomial coefficients, write targets, race-freedom of the traced
#      device kernels) and its metrics artifact must carry the analysis.*
#      gauges; the analysis-labeled ctest sweep runs the same domain through
#      the library API.
#   7. JIT codegen gate (te::jit): with a host compiler available, a cold
#      bench_kernels --jit run must compile, prove and bitwise-parity-gate
#      runtime kernels for three registry-miss shapes, and a warm second
#      run against the same artifact dir must perform ZERO recompiles
#      (kernels.jit.compiles gauge capped at 0, cache_hits floored at 1);
#      te_analyze --jit and the --all sweep then re-prove the cached
#      artifacts through the admission oracle. Skipped with a notice on
#      hosts without a usable compiler. The dlopen/admission path itself is
#      additionally exercised under ASan/UBSan by jit_test in the pass-2
#      ctest run (it self-skips only if the build compiler vanished).
#   8. clang-tidy (when installed): the bugprone/performance profile from
#      .clang-tidy over src/ and tools/, using the compile database of the
#      pass-1 tree. Skipped with a notice on hosts without clang-tidy.
#
# Pass 1 additionally gates te::obs thread scaling: bench_obs_overhead
# --threads 4 must publish bench.obs.thread_scaling >= 2 on hosts with at
# least four hardware threads.
#
# Pass 1 additionally runs the te::serve soak smoke: bench_serve with chaos
# mode (every shard killed and restarted mid-drain) must report zero
# lost/duplicated requests and a bitwise match against an uninterrupted
# reference run, and its metrics artifact is gated on the fairness ratio,
# admission counts, chaos gauges, and the p99 of the request-latency
# histogram (the obs quantile path end to end).
#
# Usage: scripts/ci.sh [extra cmake args...]
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || echo 4)"

run_pass() {
  local dir="$1"
  shift
  echo "=== ${dir}: configure ==="
  cmake -B "${dir}" -S . "$@"
  echo "=== ${dir}: build ==="
  cmake --build "${dir}" -j "${JOBS}"
  echo "=== ${dir}: ctest ==="
  ctest --test-dir "${dir}" --output-on-failure -j "${JOBS}"
}

# Pass 1: plain tier-1 configuration. The compile database feeds the
# clang-tidy leg (pass 7).
run_pass build -DCMAKE_BUILD_TYPE=Release \
  -DCMAKE_EXPORT_COMPILE_COMMANDS=ON "$@"

# Labeled subsets (same build tree; cheap, and verifies the label wiring).
for label in tier1 slow stress analysis oracle serve fuzz; do
  echo "=== build: ctest -L ${label} ==="
  ctest --test-dir build -L "${label}" --output-on-failure -j "${JOBS}"
done

# Bench smoke: the metrics pipeline end to end. A small bench_sshopm run
# must produce a schema-valid te-obs-v1 artifact (this is what perf-tracking
# jobs archive), checked by the bundled validator. --multi additionally runs
# the lane-blocked sweep, which exits nonzero if any width breaks
# slot-for-slot FailureReason parity with the per-vector baseline;
# --adaptive runs the GEAP-vs-fixed-shift study (nonzero exit if the
# adaptive scheme regresses kMaxIterations failures); --oracle builds the
# QRST all-eigenpairs spectrum and differentially verifies a fixed-shift
# sweep against it (nonzero exit on any unmatched pair). The validator then
# asserts the multi-vector, adaptive, and QRST gauges actually landed, and
# holds the deterministic solve-outcome, per-tier ttsv call, scheduler
# chunk and checkpoint counters equal to the committed BENCH_sshopm.json
# (--same-counters): any drift in iteration counts, classification or
# chunk accounting fails here. A change that moves them
# on purpose regenerates and commits the file with this command line. The
# counts are a property of the build's floating-point code, so a host whose
# -march=native differs from the one that produced the file may need its
# own baseline.
echo "=== build: bench smoke (BENCH_sshopm.json + BENCH_kernels.json) ==="
cmake --build build -j "${JOBS}" --target bench_sshopm bench_kernels \
  obs_json_check
./build/bench/bench_sshopm --tensors 16 --starts 4 --multi --adaptive \
  --oracle --metrics-json build/BENCH_sshopm.json
./build/tools/obs_json_check build/BENCH_sshopm.json \
  --require-gauge sshopm.multi.width 1 \
  --require-gauge bench.sshopm.multi_speedup.general 1 \
  --require-gauge bench.sshopm.adaptive.runs 1 \
  --require-gauge bench.sshopm.oracle.checked 1 \
  --require-gauge decomp.qrst.pairs 1 \
  --same-counters BENCH_sshopm.json sshopm.solve. \
  --same-counters BENCH_sshopm.json kernels.ttsv \
  --same-counters BENCH_sshopm.json batch.scheduler. \
  --same-counters BENCH_sshopm.json io.checkpoint.
./build/bench/bench_kernels --multi --benchmark_filter=Multi \
  --benchmark_min_time=0.01 --metrics-json build/BENCH_kernels.json
./build/tools/obs_json_check build/BENCH_kernels.json \
  --require-gauge kernels.multi.simd_width 1 \
  --require-gauge kernels.multi.autotune_width.general 1

# Obs thread-scaling smoke: the instrumented unrolled solve loop on 4
# threads at once must run at least 2x the 1-thread aggregate rate (median
# of 5 paired runs, about 1 s in total). te::obs
# counters and histograms are sharded per thread; a regression to one shared
# atomic cache line makes the threads contend and drops the scaling below 1x.
# The floor applies only where the host has the cores; elsewhere the leg
# still runs and its artifact must validate.
echo "=== build: obs thread-scaling smoke (bench_obs_overhead --threads 4) ==="
cmake --build build -j "${JOBS}" --target bench_obs_overhead
./build/bench/bench_obs_overhead --threads 4 --solves 200000 --repeats 5 \
  --metrics-json build/BENCH_obs.json
if [ "$(nproc 2>/dev/null || echo 1)" -ge 4 ]; then
  ./build/tools/obs_json_check build/BENCH_obs.json \
    --require-gauge bench.obs.thread_scaling 2
else
  ./build/tools/obs_json_check build/BENCH_obs.json
fi

# Serve soak smoke: the service layer end to end. bench_serve runs the
# fairness phase (DRR must keep the light tenant's p99 at least 2x below
# the flooding tenant's), the admission phase (exact reject counts at a
# bounded tenant queue), and the chaos phase (--chaos: every shard killed
# and restarted mid-drain, replayed from its per-shard WAL; the bench exits
# nonzero on any lost, duplicated, or bitwise-mismatched request vs an
# uninterrupted reference run). The validator then gates the published
# gauges plus the p99 of the request-latency histogram -- the obs quantile
# export path is part of the gate.
echo "=== build: serve soak smoke (bench_serve --chaos) ==="
cmake --build build -j "${JOBS}" --target bench_serve serve_cli obs_json_check
rm -rf build/ci_serve_wal
mkdir -p build/ci_serve_wal
./build/bench/bench_serve --shards 2 --chaos --wal-dir build/ci_serve_wal \
  --metrics-json build/BENCH_serve.json
./build/tools/obs_json_check build/BENCH_serve.json \
  --require-gauge serve.fairness.p99_ratio 2 \
  --require-gauge-max serve.requests.lost 0 \
  --require-gauge-max serve.requests.duplicated 0 \
  --require-gauge-max serve.chaos.mismatched_requests 0 \
  --require-gauge serve.admission.rejected 1 \
  --require-quantile serve.request.latency_seconds 99 60

# Pass 2: host-sanitized. RelWithDebInfo keeps stacks symbolized; native
# arch off so the instrumented binaries stay portable across CI hosts.
run_pass build-asan \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DTE_SANITIZE=address,undefined \
  -DTE_NATIVE_ARCH=OFF \
  "$@"

# Pass 3: TSan over the concurrency surface (thread pool, batch backends,
# streaming scheduler, stress suite, the serve layer -- background pump
# thread, shared cross-shard cache, socket front-end -- te::obs, whose
# per-thread shard assignment and merge-on-read every worker shares, and
# the DW-MRI fit, whose per-thread scheme memo pool workers fill at once).
# Building only these binaries keeps the pass affordable.
TSAN_TARGETS=(parallel_test batch_test scheduler_test stress_test serve_test
  obs_test dwmri_test)
echo "=== build-tsan: configure ==="
cmake -B build-tsan -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DTE_SANITIZE=thread \
  -DTE_NATIVE_ARCH=OFF \
  "$@"
echo "=== build-tsan: build ${TSAN_TARGETS[*]} ==="
cmake --build build-tsan -j "${JOBS}" --target "${TSAN_TARGETS[@]}"
echo "=== build-tsan: ctest (tier1 + stress + serve labels) ==="
ctest --test-dir build-tsan -L 'tier1|stress|serve' --output-on-failure \
  -j "${JOBS}"

# Pass 4: TE_OBS=OFF. The disabled mode must build, pass tier1, and the
# overhead bench's built-in assertion must see an empty registry (it exits
# non-zero otherwise). A short run is enough -- the assertion is what gates.
echo "=== build-noobs: configure ==="
cmake -B build-noobs -S . \
  -DCMAKE_BUILD_TYPE=Release \
  -DTE_OBS=OFF \
  "$@"
echo "=== build-noobs: build ==="
cmake --build build-noobs -j "${JOBS}"
echo "=== build-noobs: ctest -L tier1 ==="
ctest --test-dir build-noobs -L tier1 --output-on-failure -j "${JOBS}"
echo "=== build-noobs: bench_obs_overhead (zero-overhead assertion) ==="
./build-noobs/bench/bench_obs_overhead --solves 2000 --repeats 1

# Pass 5: persistence (te::io). Everything below reuses the plain Release
# tree from pass 1.
echo "=== build: persistence leg (TETC pack / check / warm start) ==="
cmake --build build -j "${JOBS}" \
  --target make_dataset tetc_pack tetc_check bench_kernels streaming_scheduler \
  tensoreig_cli

# Legacy fixture -> container -> legacy must be byte-identical, and both the
# packed batch and a container-native dataset (ground truth embedded) must
# survive strict validation.
./build/examples/make_dataset --voxels 32 --seed 7 --out build/ci_voxels.tesymb
./build/examples/make_dataset --voxels 32 --seed 7 --out build/ci_voxels.tetc
./build/tools/tetc_pack pack --input build/ci_voxels.tesymb \
  --output build/ci_batch.tetc
./build/tools/tetc_pack unpack --input build/ci_batch.tetc \
  --output build/ci_roundtrip.tesymb
cmp build/ci_voxels.tesymb build/ci_roundtrip.tesymb

# One container carrying the precomputed KernelTables for every bench shape;
# bench_kernels must warm-start all of them from disk (the built-in te::obs
# counter assertion exits nonzero if any table is rebuilt in-process).
rm -f build/ci_tables.tetc
for shape in "3 3" "4 3" "4 5" "6 3" "6 4"; do
  read -r m n <<< "${shape}"
  ./build/tools/tetc_pack tables --order "${m}" --dim "${n}" \
    --output build/ci_tables.tetc --append
done
# A batch-result section spanning several of the Writer's 64 KiB streaming
# chunks (32 voxels x 128 starts, about 180 KB of records).
./build/examples/tensoreig_cli --input build/ci_voxels.tetc --starts 128 \
  --backend cpu --tier unrolled --save-results build/ci_results.tetc
./build/tools/tetc_check build/ci_batch.tetc build/ci_voxels.tetc \
  build/ci_tables.tetc build/ci_results.tetc --quiet
# tetc_pack info decodes each section's preamble through the same reader
# the load_* helpers use.
for f in ci_batch ci_tables ci_results; do
  ./build/tools/tetc_pack info --input "build/${f}.tetc"
done
./build/bench/bench_kernels --tables build/ci_tables.tetc \
  --require-warm-start --benchmark_min_time=0.01

# Kill/checkpoint/resume: run half the chunks, die (exit 3 is the simulated
# crash), then resume from the write-ahead log; the example cross-checks the
# stitched results bitwise against a one-shot run and exits nonzero on any
# mismatch. The torn log of a killed run must pass tetc_check --torn-ok.
rm -f build/ci_sched.tetc
./build/examples/streaming_scheduler --tensors 8 --starts 8 --chunk 3 \
  --checkpoint build/ci_sched.tetc --kill-after 4 && exit 1 || [ "$?" -eq 3 ]
./build/tools/tetc_check build/ci_sched.tetc --torn-ok --quiet
./build/tools/tetc_pack info --input build/ci_sched.tetc
./build/examples/streaming_scheduler --tensors 8 --starts 8 --chunk 3 \
  --checkpoint build/ci_sched.tetc --resume
./build/tools/tetc_check build/ci_sched.tetc --quiet

# Pass 6: static verification (te::analysis). te_analyze exits nonzero
# unless every registered shape x tier x lane width proves clean, and the
# metrics artifact must carry the analysis.* gauges (plans_proven >= 342,
# today's full plan count, so a change cannot drop plans silently; a
# bank-conflict way >= 1 shows the sweep actually traced).
echo "=== build: static-verification leg (te_analyze --all) ==="
cmake --build build -j "${JOBS}" --target te_analyze obs_json_check
./build/tools/te_analyze --all --quiet --json build/ANALYSIS.json
./build/tools/obs_json_check build/ANALYSIS.json \
  --require-gauge analysis.plans_proven 342 \
  --require-gauge analysis.shapes_analyzed 1 \
  --require-gauge analysis.bank_conflict.max_way 1

# Pass 7: runtime codegen (te::jit). Resolve a host compiler -- an explicit
# $TE_JIT_CC wins, else the c++ on PATH -- and skip with a notice when there
# is none (the container contract: no compiler means the jit tier must have
# degraded gracefully everywhere above, which jit_test already asserted).
JIT_CC="${TE_JIT_CC:-$(command -v c++ || true)}"
if [ -n "${JIT_CC}" ] && [ -x "${JIT_CC}" ]; then
  echo "=== build: jit codegen leg (bench_kernels --jit, ${JIT_CC}) ==="
  cmake --build build -j "${JOBS}" --target bench_kernels te_analyze \
    obs_json_check
  rm -rf build/ci_jit_cache
  mkdir -p build/ci_jit_cache
  # Cold run: compile + prove + bitwise parity gate (nonzero exit inside
  # the bench on any mismatch), speedup gauges vs the precomputed tier.
  TE_JIT_CC="${JIT_CC}" TE_JIT_CACHE_DIR=build/ci_jit_cache \
    ./build/bench/bench_kernels --jit --benchmark_filter=NoSuchBench \
    --benchmark_min_time=0.01 --metrics-json build/BENCH_jit_cold.json
  ./build/tools/obs_json_check build/BENCH_jit_cold.json \
    --require-gauge kernels.jit.parity 1 \
    --require-gauge kernels.jit.compiles 1 \
    --require-gauge kernels.jit.speedup.min 1
  # Warm run: same artifact dir, zero recompiles allowed.
  TE_JIT_CC="${JIT_CC}" TE_JIT_CACHE_DIR=build/ci_jit_cache \
    ./build/bench/bench_kernels --jit --benchmark_filter=NoSuchBench \
    --benchmark_min_time=0.01 --metrics-json build/BENCH_jit_warm.json
  ./build/tools/obs_json_check build/BENCH_jit_warm.json \
    --require-gauge kernels.jit.parity 1 \
    --require-gauge kernels.jit.cache_hits 1 \
    --require-gauge-max kernels.jit.compiles 0
  # The committed BENCH_kernels.json carries the warm-run jit gauges.
  # Admission oracle over the cached artifacts: one shape on demand, then
  # the --all sweep picks every cached shape out of the spill dir (without
  # a compiler in the environment -- warm loads must be provable alone).
  TE_JIT_CC="${JIT_CC}" ./build/tools/te_analyze --jit 3 7 \
    --jit-dir build/ci_jit_cache --no-gpu --quiet
  env -u TE_JIT_CC ./build/tools/te_analyze --all \
    --jit-dir build/ci_jit_cache --quiet --json build/ANALYSIS_jit.json
  ./build/tools/obs_json_check build/ANALYSIS_jit.json \
    --require-gauge analysis.plans_proven 1
else
  echo "=== jit codegen leg: no host compiler, skipped ==="
fi

# Pass 8: clang-tidy over src/ and tools/ with the pass-1 compile database.
# Gated on availability: CI images without LLVM skip with a notice instead
# of silently passing (the leg prints which binary it used when it runs).
if command -v run-clang-tidy >/dev/null 2>&1; then
  echo "=== clang-tidy: run-clang-tidy over src/ tools/ ==="
  run-clang-tidy -p build -quiet "$(pwd)/src/.*" "$(pwd)/tools/.*"
elif command -v clang-tidy >/dev/null 2>&1; then
  echo "=== clang-tidy: per-file sweep over src/ tools/ ==="
  find src tools -name '*.cpp' -print0 |
    xargs -0 -n 1 -P "${JOBS}" clang-tidy -p build --quiet
else
  echo "=== clang-tidy: not installed, leg skipped ==="
fi

echo "CI: all passes green."
