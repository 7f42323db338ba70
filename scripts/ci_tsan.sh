#!/usr/bin/env bash
# Configure and build the whole tree under ThreadSanitizer and run the whole
# unit suite (`ctest -L unit`), then the paths that drive simulations on
# pool threads end to end:
#  * the fleet bench at --jobs 4: each sweep task builds a full multi-switch
#    fabric (TopologyBuilder, shared AddressDirectory, bounded FIBs) and
#    drives its simulation on a pool thread;
#  * the policy-convergence bench at --jobs 4, with a PolicyServer and its
#    agents on every pool thread (SHA-256 picks its compression body once per
#    process, and every pool thread hashes with it);
#  * the policy fuzz family at --jobs 4: corpus generation, the pairwise
#    analyzer and the per-backend Matcher oracle on pool threads.
# Sweep tasks build cards, matchers, flow tables and FloodGuards on pool
# threads, and buffer pools are thread-local with plain refcounts: TSan
# proves all of it is shared-nothing.
#
# Every unit test runs under TSan. One that cannot would be excluded here,
# and only here, with `-E` on the ctest line and its reason beside it.
# The benches write their artifacts into the build directory.
#
# Usage: scripts/ci_tsan.sh [build-dir]   (default: build-tsan)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-tsan}"

export TSAN_OPTIONS="halt_on_error=1:second_deadlock_stack=1"
export BARB_BENCH_OUT="$BUILD_DIR"

start=$(date +%s)
cmake -B "$BUILD_DIR" -S . -DTSAN=ON -DBARB_WERROR=ON
cmake --build "$BUILD_DIR" -j "$(nproc)"
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)" -L unit
BARB_BENCH_FAST=1 "$BUILD_DIR"/bench/fleet_goodput --jobs 4
BARB_BENCH_FAST=1 "$BUILD_DIR"/bench/fleet_policy_convergence --jobs 4
"$BUILD_DIR"/tests/fuzz_main --family policy --seeds 8 --jobs 4
echo "ci_tsan.sh: $(($(date +%s) - start)) s wall"
