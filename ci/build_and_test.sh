#!/usr/bin/env bash
# CI entry point: tier-1 verify (configure + build + ctest), the examples as
# smoke tests (each prints a SELF-CHECK line and exits nonzero on failure),
# the repository benchmark's --check pass (bitwise oracles on all four
# workloads), the substrate + mesh + task-runtime microbenchmarks in smoke
# configuration, and a TSan and an ASan+UBSan leg over chosen test suites.
# The build itself enforces -Wall -Wextra -Werror on src/meshspectral/ and
# src/core/ via the *_warning_check canary targets.
# Run from the repo root:
#
#   ci/build_and_test.sh [build-dir]
#
set -euo pipefail

BUILD_DIR="${1:-build}"
JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

cd "$(dirname "$0")/.."

echo "==> configure"
cmake -B "$BUILD_DIR" -S .

echo "==> build"
cmake --build "$BUILD_DIR" -j "$JOBS"

echo "==> test (tier-1 verify)"
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS"

echo "==> examples (smoke: each must print SELF-CHECK ... ok and exit 0)"
(cd "$BUILD_DIR" && ./quickstart)
(cd "$BUILD_DIR" && ./poisson_demo)
(cd "$BUILD_DIR" && ./stream_demo)
(cd "$BUILD_DIR" && ./sparse_advection_demo)
(cd "$BUILD_DIR" && ./compose_demo)

echo "==> repository benchmark (check: every workload once against its oracle)"
python3 bench/ppa_bench/run.py --check

echo "==> substrate microbenchmarks (smoke)"
(cd "$BUILD_DIR" && PPA_BENCH_SMOKE=1 ./micro_collectives)
(cd "$BUILD_DIR" && PPA_BENCH_SMOKE=1 ./micro_substrate)

echo "==> mesh halo-exchange ablation (smoke)"
(cd "$BUILD_DIR" && PPA_BENCH_SMOKE=1 ./ablation_mesh)

echo "==> multi-block mesh ablation (smoke)"
(cd "$BUILD_DIR" && PPA_BENCH_SMOKE=1 ./ablation_blocks)

echo "==> task-runtime ablation (smoke)"
(cd "$BUILD_DIR" && PPA_BENCH_SMOKE=1 ./ablation_taskdc)

echo "==> streaming pipeline ablation (smoke)"
(cd "$BUILD_DIR" && PPA_BENCH_SMOKE=1 ./ablation_pipeline)

echo "==> persistent engine ablation (smoke)"
(cd "$BUILD_DIR" && PPA_BENCH_SMOKE=1 ./ablation_engine)

echo "==> fault-injection overhead ablation (smoke)"
(cd "$BUILD_DIR" && PPA_BENCH_SMOKE=1 ./ablation_faults)

echo "==> serving scheduler ablation (smoke)"
(cd "$BUILD_DIR" && PPA_BENCH_SMOKE=1 ./ablation_serving)

echo "==> composition ablation (smoke)"
(cd "$BUILD_DIR" && PPA_BENCH_SMOKE=1 ./ablation_compose)

echo "==> kernel-layer ablation (smoke)"
(cd "$BUILD_DIR" && PPA_BENCH_SMOKE=1 ./ablation_kernels)

test -s "$BUILD_DIR/BENCH_substrate.json" || {
  echo "missing $BUILD_DIR/BENCH_substrate.json" >&2
  exit 1
}
test -s "$BUILD_DIR/BENCH_mesh.json" || {
  echo "missing $BUILD_DIR/BENCH_mesh.json" >&2
  exit 1
}
test -s "$BUILD_DIR/BENCH_blocks.json" || {
  echo "missing $BUILD_DIR/BENCH_blocks.json" >&2
  exit 1
}
test -s "$BUILD_DIR/BENCH_taskdc.json" || {
  echo "missing $BUILD_DIR/BENCH_taskdc.json" >&2
  exit 1
}
test -s "$BUILD_DIR/BENCH_pipeline.json" || {
  echo "missing $BUILD_DIR/BENCH_pipeline.json" >&2
  exit 1
}
test -s "$BUILD_DIR/BENCH_engine.json" || {
  echo "missing $BUILD_DIR/BENCH_engine.json" >&2
  exit 1
}
test -s "$BUILD_DIR/BENCH_faults.json" || {
  echo "missing $BUILD_DIR/BENCH_faults.json" >&2
  exit 1
}
test -s "$BUILD_DIR/BENCH_serving.json" || {
  echo "missing $BUILD_DIR/BENCH_serving.json" >&2
  exit 1
}
test -s "$BUILD_DIR/BENCH_compose.json" || {
  echo "missing $BUILD_DIR/BENCH_compose.json" >&2
  exit 1
}
test -s "$BUILD_DIR/BENCH_kernels.json" || {
  echo "missing $BUILD_DIR/BENCH_kernels.json" >&2
  exit 1
}

# The committed overhead record (measured full-mode against a same-session
# pre-instrumentation baseline — CI's smoke run above is too noisy to gate
# on) must show disabled fault injection within the 2% acceptance bound.
echo "==> fault-injection overhead record (committed BENCH_faults.json)"
awk '
  /"name": "faults\/summary"/ {
    found = 1
    if (match($0, /"geomean_ratio_vs_baseline": [0-9.]+/)) {
      ratio = substr($0, RSTART + 30, RLENGTH - 30) + 0
      if (ratio <= 0 || ratio > 1.02) {
        printf "committed fault-injection overhead %.3fx exceeds 1.02x bound\n", ratio
        exit 1
      }
      printf "committed fault-injection overhead: %.3fx (bound 1.02x)\n", ratio
    }
  }
  END { if (!found) { print "no faults/summary row in BENCH_faults.json"; exit 1 } }
' BENCH_faults.json

# The committed kernel-layer record (measured full-mode; smoke numbers are
# too noisy to gate on) must show the layout-aware path actually winning:
# column tiling beats the naive sweep on the L2-overflow shape. The apps'
# kernel sweeps have no second path to race; the repository benchmark's
# mesh_bandwidth workload times them end to end.
echo "==> kernel-layer record (committed BENCH_kernels.json)"
awk '
  /"name": "kernels\/summary"/ {
    found = 1
    if (match($0, /"tiled_vs_naive_ratio": [0-9.]+/)) {
      ratio = substr($0, RSTART + 24, RLENGTH - 24) + 0
      if (ratio <= 1.0) {
        printf "committed tiled-vs-naive ratio %.3fx is not > 1.0x\n", ratio
        exit 1
      }
      printf "committed tiled-vs-naive ratio: %.3fx (> 1.0x required)\n", ratio
    }
  }
  END { if (!found) { print "no kernels/summary row in BENCH_kernels.json"; exit 1 } }
' BENCH_kernels.json

# ThreadSanitizer leg: the engine's monitor/abort/fault paths are the racy
# part of the codebase, the per-rank CommTrace counter blocks are written
# concurrently by every rank of a job (the mpl, collectives and poisson
# suites drive them), the mailbox lanes hand envelopes from sender to
# receiver through a lock-free published count (the substrate suite drives
# them directly), and the fixed-peer channels hand scalar collectives and
# block-plan halo buffers over a lock-free sequence word and credit count
# (the collectives, faults, blockset, cfd and airshed suites drive them,
# and the exchange-plan, meshspectral and kernels suites through
# ExchangePlan2D, which is the block plan at one block per rank);
# vet them under TSan when the toolchain
# supports it (probe first — some images ship g++ without libtsan). Bench
# and examples are skipped (timing-sensitive), and the fault soak runs
# reduced.
if echo 'int main(){}' | g++ -xc++ -fsanitize=thread -o /tmp/tsan_probe - 2>/dev/null; then
  echo "==> TSan build"
  cmake -B "$BUILD_DIR-tsan" -S . -DPPA_SANITIZE=thread \
    -DPPA_BUILD_BENCH=OFF -DPPA_BUILD_EXAMPLES=OFF
  cmake --build "$BUILD_DIR-tsan" -j "$JOBS"
  echo "==> TSan test (engine + scheduler + pipeline + faults + compose + mpl + collectives + poisson + substrate + blockset + cfd + airshed + exchange_plan + meshspectral + kernels)"
  PPA_FAULT_SOAK_JOBS=40 PPA_SCHED_SOAK_JOBS=40 PPA_COMPOSE_SMOKE=1 \
    ctest --test-dir "$BUILD_DIR-tsan" \
    --output-on-failure -j "$JOBS" \
    -R 'test_engine|test_scheduler|test_pipeline|test_faults|test_compose|test_mpl|test_collectives|test_app_poisson|test_substrate|test_blockset|test_app_cfd|test_app_airshed|test_exchange_plan|test_meshspectral|test_kernels'
else
  echo "==> TSan leg skipped (no usable -fsanitize=thread toolchain)"
fi

# AddressSanitizer + UndefinedBehaviorSanitizer leg over every suite but
# test_task, whose work-stealing pool overflows its stack under ASan's
# larger frames (ROADMAP item 3): the flags go in through CMAKE_CXX_FLAGS
# and CMAKE_EXE_LINKER_FLAGS, so PPA_SANITIZE stays a thread-only switch.
# The Release flags drop -DNDEBUG, so this leg also runs every assert (the
# exchange plans' in-flight and message-size checks among them), which no
# other leg compiles in. Same reduced soak as the TSan leg.
ASAN_FLAGS="-fsanitize=address,undefined -fno-omit-frame-pointer -D_GLIBCXX_ASSERTIONS"
if echo 'int main(){}' | g++ -xc++ -fsanitize=address,undefined -o /tmp/asan_probe - 2>/dev/null; then
  echo "==> ASan+UBSan build"
  cmake -B "$BUILD_DIR-asan" -S . -DCMAKE_CXX_FLAGS="$ASAN_FLAGS" \
    -DCMAKE_CXX_FLAGS_RELEASE=-O2 \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address,undefined" \
    -DPPA_BUILD_BENCH=OFF -DPPA_BUILD_EXAMPLES=OFF
  cmake --build "$BUILD_DIR-asan" -j "$JOBS"
  echo "==> ASan+UBSan test (every suite but task)"
  UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 \
    PPA_FAULT_SOAK_JOBS=40 PPA_SCHED_SOAK_JOBS=40 PPA_COMPOSE_SMOKE=1 \
    ctest --test-dir "$BUILD_DIR-asan" \
    --output-on-failure -j "$JOBS" \
    -E '^test_task$'
else
  echo "==> ASan+UBSan leg skipped (no usable -fsanitize=address,undefined toolchain)"
fi

echo "==> OK"
