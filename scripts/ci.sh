#!/usr/bin/env bash
# CI gate for the Symbad repro: the tier-1 build+test loop, a parallel-safety
# pass over the unit label, a perf-regression pass over the
# SAT/MC/kernel/obs benches against the committed BENCH_BASELINE.json,
# the flow benchmark's own correctness checks (every workload at seed 0:
# golden output digests and paper figures), an AddressSanitizer
# configure/build/ctest pass with the threaded campaign runner explicitly
# exercised at 4 workers, an UndefinedBehaviorSanitizer pass over
# the SAT core (the clause arena lives on raw offset arithmetic — UBSan is
# the cheapest way to catch a bad ref before it corrupts a verdict), the
# lane-parallel simulator with the PCC pre-pass built on it, the Laerte
# fault simulation over the media pipeline and the coverage/bit-fault
# support it rests on, and the task-id simulation path (kernel, platform
# models, system model), a
# ThreadSanitizer pass over the threaded campaign/generator suites, and an
# opt-in clang-tidy sweep (skipped when the tool is not installed).
# Timings are warn-only (this runs on a shared 1-core host where wall-clock
# swings with neighbours); allocation-count, conflict-count,
# encoded-CNF-size, PCC prune and table-engine pair counters are
# host-independent and hard-fail beyond 20%; a gated counter that disappears
# or falls from nonzero to 0 hard-fails too (re-record the baseline if that
# is intentional). Any failure exits nonzero.
#
# Usage: scripts/ci.sh [jobs]   (jobs defaults to nproc)

set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${1:-$(nproc)}"

echo "==> [1/9] tier-1: Release build + full ctest"
cmake -B build -S .
cmake --build build -j "$JOBS"
ctest --test-dir build --output-on-failure -j "$JOBS"

echo "==> [2/9] parallel-safety: ctest -L unit -j (suites must tolerate"
echo "    concurrent siblings — shared fixtures, tmp dirs, env), then every"
echo "    unit suite again with telemetry spans on, and with telemetry off"
echo "    (every verdict checked without the registry; cost-reading tests"
echo "    turn counting on themselves)"
ctest --test-dir build --output-on-failure -L unit -j "$((JOBS * 2))"
SYMBAD_OBS=2 ctest --test-dir build --output-on-failure -L unit -j "$JOBS"
SYMBAD_OBS=0 ctest --test-dir build --output-on-failure -L unit -j "$JOBS"

echo "==> [3/9] perf regression: SAT/MC/kernel/obs benches vs BENCH_BASELINE.json"
BENCH_ONLY="bench_sat bench_mc bench_mc_pcc bench_atpg bench_level1_sim bench_level2_sim bench_level3_sim bench_gen bench_obs" \
  BENCH_OUT=build/bench_candidate.json \
  BENCH_JSON_DIR=build/bench_candidate \
  scripts/bench_baseline.sh build
scripts/bench_compare.py --candidate build/bench_candidate.json --time-mode warn

echo "==> [4/9] flow benchmark correctness: each workload at seed 0 checks its"
echo "    golden output digests and paper figures; the last line must report"
echo "    correct=true with no failed iteration"
for workload in paper_flow fault_grading platform_sweep; do
  last="$(python3 flowbench/run.py --workload "$workload" --seed 0 --seconds 1 --trace 0 |
          tail -n 1)"
  python3 - "$workload" "$last" <<'EOF'
import json
import sys

workload, line = sys.argv[1], sys.argv[2]
result = json.loads(line)
if result.get("correct") is not True or result.get("failed") != 0:
    sys.exit(f"flowbench {workload}: correct={result.get('correct')} "
             f"failed={result.get('failed')}")
print(f"    {workload}: correct, {result['attempted']} iterations")
EOF
done

echo "==> [5/9] AddressSanitizer build + full ctest"
SYMBAD_SANITIZE=address cmake -B build-asan -S .
cmake --build build-asan -j "$JOBS"
ctest --test-dir build-asan --output-on-failure -j "$JOBS"

echo "==> [6/9] threaded campaign runner + knob re-runs under ASan (4 workers;"
echo "    step 5's full ctest already covers every suite sanitized, arena"
echo "    compaction forced on every reduction included (SatReduce.*) — these"
echo "    re-runs exist for non-default knobs: the worker count and spans on)"
SYMBAD_CAMPAIGN_WORKERS=4 ./build-asan/test_exec
# Generator + generative differential sweeps sanitized (coroutine traffic
# replay and the campaign worker pool both allocate aggressively).
./build-asan/test_gen
# Observability layer sanitized with spans on and the threaded campaign at
# the non-default worker count (thread-shard registration/retirement and
# the span flush path under concurrent workers).
SYMBAD_OBS=2 SYMBAD_CAMPAIGN_WORKERS=4 ./build-asan/test_obs

echo "==> [7/9] UndefinedBehaviorSanitizer: SAT core (arena offset/shift"
echo "    arithmetic, header bit packing), the 64-lane simulator + PCC"
echo "    pre-pass (lane masks shift by a lane index; 1 << 64 is UB ASan misses)"
echo "    and the Laerte fault simulation + media kernels (bit patches shift by"
echo "    a fault's bit; the GA opens a coverage scope per distinct stimulus),"
echo "    plus the verif support under them (bit-range checks on fault"
echo "    enumeration, coverage bulk adds), and the task-id simulation path"
echo "    (stage plans, FIFO ports and FPGA context/function tables are vectors"
echo "    indexed by TaskId or device index; the kernel and bus run under them)"
SYMBAD_SANITIZE=undefined cmake -B build-ubsan -S .
cmake --build build-ubsan -j "$JOBS" --target test_sat test_rtl test_mc_pcc test_atpg \
  test_media test_verif test_sim test_platform test_core
# halt_on_error: UBSan's checks recover by default, which would let a
# finding scroll past with the suite still green.
export UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1
./build-ubsan/test_sat
./build-ubsan/test_rtl
./build-ubsan/test_mc_pcc
./build-ubsan/test_atpg
./build-ubsan/test_media
./build-ubsan/test_verif
./build-ubsan/test_sim
./build-ubsan/test_platform
./build-ubsan/test_core
unset UBSAN_OPTIONS

echo "==> [8/9] ThreadSanitizer: campaign worker pool + generator sweeps"
echo "    (the only threaded subsystem is exec::CampaignRunner — TSan the"
echo "    suites that drive it, at the non-default 4-worker count)"
SYMBAD_SANITIZE=thread cmake -B build-tsan -S .
cmake --build build-tsan -j "$JOBS" --target test_exec test_gen test_obs
SYMBAD_CAMPAIGN_WORKERS=4 ./build-tsan/test_exec
SYMBAD_CAMPAIGN_WORKERS=4 ./build-tsan/test_gen
# Registry shards + span buffers under TSan: campaign workers increment
# concurrently with spans on while the main thread snapshots and exports.
SYMBAD_CAMPAIGN_WORKERS=4 SYMBAD_OBS=2 ./build-tsan/test_obs

echo "==> [9/9] clang-tidy (opt-in: skipped when the tool is absent —"
echo "    the CI container ships only the gcc toolchain)"
if command -v clang-tidy >/dev/null 2>&1; then
  # compile_commands.json is exported by the tier-1 configure in step 1.
  mapfile -t _tidy_sources < <(git ls-files 'src/*.cpp')
  clang-tidy -p build --warnings-as-errors='*' "${_tidy_sources[@]}"
else
  echo "    clang-tidy not found; skipping (config kept in .clang-tidy)"
fi
echo "==> CI green"
