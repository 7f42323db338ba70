#!/usr/bin/env bash
# Run the randomized scenario fuzzer (tests/fuzz/) under sanitizers.
#
#   1. ASan + UBSan build with libstdc++ assertions (_GLIBCXX_ASSERTIONS,
#      set by the ASAN CMake option: bounds checks on vector/span/array
#      operator[], span::first/subspan, optional::operator*), 100 sequential
#      seeds — memory safety and UB over randomized topologies, rule-sets,
#      traffic mixes, and fault profiles.
#      Each seed's differential oracle is three-way: naive reference vs the
#      linear matcher vs the compiled classifier, then one card Matcher per
#      compiled backend (its flow cache generation-bumped across rule-set
#      pushes), VPG frames included. Every firewall card in a scenario draws
#      its matching backend (linear, stateful, compiled, compiled+flowcache).
#      Every frame a host's tap sees, fault-corrupted ones included, is
#      parsed by FrameView::parse and by the reference parser, which must
#      agree; the run prints how many frames each scenario family checked.
#   2. Short TSan pass with --jobs 4 — seeds are shared-nothing simulations
#      distributed over the sweep-runner thread pool; TSan proves it.
#
# A failing seed prints itself and writes fuzz_failure_<seed>.json; replay
# with `fuzz_main --seed N` (or --replay on the json) in either build.
#
# Usage: scripts/ci_fuzz.sh [seeds] [base-seed]   (default: 100 seeds from 1)
set -euo pipefail

cd "$(dirname "$0")/.."
SEEDS="${1:-100}"
BASE="${2:-1}"

export ASAN_OPTIONS="halt_on_error=1:detect_leaks=1:strict_string_checks=1"
export UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1"
export TSAN_OPTIONS="halt_on_error=1:second_deadlock_stack=1"

echo "=== fuzz under ASan/UBSan: ${SEEDS} seeds from ${BASE} ==="
cmake -B build-asan -S . -DASAN=ON -DBARB_WERROR=ON
cmake --build build-asan -j "$(nproc)" --target fuzz_main
build-asan/tests/fuzz_main --seeds "$SEEDS" --base "$BASE"
echo "=== link-fault regression corpus under ASan/UBSan ==="
build-asan/tests/fuzz_main --family legacy \
  --seed-file tests/data/fault_fuzz_seeds.txt

echo "=== policy family under ASan/UBSan: ${SEEDS} seeds + regression corpus ==="
# Realistic policy corpora (generator -> analyzer ground truth -> three-way
# match oracle) with the curated shape-coverage seeds appended.
build-asan/tests/fuzz_main --family policy --seeds "$SEEDS" --base "$BASE"
build-asan/tests/fuzz_main --family policy \
  --seed-file tests/data/policy_fuzz_seeds.txt

echo "=== fuzz under TSan: 12 seeds from ${BASE}, --jobs 4 ==="
cmake -B build-tsan -S . -DTSAN=ON -DBARB_WERROR=ON
cmake --build build-tsan -j "$(nproc)" --target fuzz_main
build-tsan/tests/fuzz_main --seeds 12 --base "$BASE" --jobs 4

echo "ci_fuzz: all seeds passed"
