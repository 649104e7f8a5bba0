#!/usr/bin/env bash
# The one CI entry point: configure + build + full test suite + the lint
# gate (machine-readable), then targeted sanitizer builds. Each stage owns
# a stable exit code so automation can tell *what* broke without parsing
# logs:
#
#   0  everything passed
#   2  configure or build failed (plain build tree)
#   3  ctest suite failed
#   4  costsense-lint found violations (its JSON is on stdout) or its
#      configuration is broken (e.g. unparseable layers.toml)
#   5  AddressSanitizer build or its test subset failed
#   6  ThreadSanitizer build or its test subset failed
#   7  streaming-sink stage failed: figure stdout moves when the JSON
#      sidecar is enabled, the sidecar is missing, empty or does not open
#      with an artifact record, or the protocol fuzz smoke found a
#      violation
#   8  optimizer stage failed: micro_optimizer exited nonzero. The stage
#      only reports (us per DP call, join candidates priced/built/kept
#      per call); it never gates on timing, which varies across hosts
#
# The sanitizer stages rebuild into their own trees (build-asan,
# build-tsan) and run the label subsets the root CMakeLists documents for
# them: resilience plus the pinned examples under ASan (the examples run
# the paper loop: optimizer -> discovery -> LP -> census), concurrency
# under TSan. Set
# COSTSENSE_CI_SKIP_SANITIZERS=1 to stop after the lint gate (fast local
# pre-push loop).
set -u

ROOT="$(cd "$(dirname "$0")/../.." && pwd)"
JOBS="${COSTSENSE_CI_JOBS:-$(nproc)}"

stage() { echo "== costsense-ci: $*" >&2; }

stage "configure + build (build/)"
cmake -B "$ROOT/build" -S "$ROOT" >/dev/null || exit 2
cmake --build "$ROOT/build" -j "$JOBS" || exit 2

stage "ctest (full suite)"
ctest --test-dir "$ROOT/build" --output-on-failure -j "$JOBS" || exit 3

stage "lint gate (--format json)"
"$ROOT/build/tools/lint/costsense_lint" \
  --format json \
  --relative-to "$ROOT" \
  --exclude "$ROOT/tests/tools/lint/corpus" \
  --layers "$ROOT/tools/lint/layers.toml" \
  --root "$ROOT/src" \
  --root "$ROOT/bench" \
  --root "$ROOT/tests" \
  --root "$ROOT/tools" || exit 4

stage "streaming sinks (sidecar leaves stdout alone + protocol fuzz smoke)"
STREAM_TMP="$(mktemp -d)"
trap 'rm -rf "$STREAM_TMP"' EXIT
env COSTSENSE_QUICK=1 "$ROOT/build/bench/fig5_shared_device" \
  >"$STREAM_TMP/plain.out" 2>/dev/null || exit 7
env COSTSENSE_QUICK=1 COSTSENSE_ARTIFACT_JSON="$STREAM_TMP/sidecar.jsonl" \
  "$ROOT/build/bench/fig5_shared_device" \
  >"$STREAM_TMP/sidecar.out" 2>/dev/null || exit 7
if ! cmp -s "$STREAM_TMP/plain.out" "$STREAM_TMP/sidecar.out"; then
  echo "costsense-ci: figure stdout differs when the JSON sidecar is on" >&2
  exit 7
fi
if [ ! -s "$STREAM_TMP/sidecar.jsonl" ]; then
  echo "costsense-ci: artifact sidecar missing or empty" >&2
  exit 7
fi
case "$(head -n 1 "$STREAM_TMP/sidecar.jsonl")" in
  '{"artifact":'*) ;;
  *)
    echo "costsense-ci: artifact sidecar does not open with an" \
         '{"artifact": record' >&2
    exit 7
    ;;
esac
"$ROOT/build/tools/fuzz/protocol_fuzz" seed=7 iters=1500 \
  deadline_ms=120000 >/dev/null || exit 7

stage "optimizer (report only: us per call, DP candidates per call)"
"$ROOT/build/bench/micro_optimizer" --benchmark_filter=BM_OptimizeTpch \
  --benchmark_min_time=0.05 >&2 || exit 8

if [ "${COSTSENSE_CI_SKIP_SANITIZERS:-0}" = "1" ]; then
  stage "sanitizers skipped (COSTSENSE_CI_SKIP_SANITIZERS=1)"
  exit 0
fi

stage "AddressSanitizer (build-asan/, ctest -L 'resilience|examples')"
cmake -B "$ROOT/build-asan" -S "$ROOT" -DCOSTSENSE_ASAN=ON >/dev/null || exit 5
cmake --build "$ROOT/build-asan" -j "$JOBS" || exit 5
ctest --test-dir "$ROOT/build-asan" -L 'resilience|examples' \
  --output-on-failure -j "$JOBS" || exit 5

stage "ThreadSanitizer (build-tsan/, ctest -L concurrency)"
cmake -B "$ROOT/build-tsan" -S "$ROOT" -DCOSTSENSE_TSAN=ON >/dev/null || exit 6
cmake --build "$ROOT/build-tsan" -j "$JOBS" || exit 6
ctest --test-dir "$ROOT/build-tsan" -L concurrency --output-on-failure \
  -j "$JOBS" || exit 6

stage "all stages passed"
exit 0
