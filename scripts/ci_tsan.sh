#!/usr/bin/env bash
# Configure, build, and run the threading-sensitive tests under
# ThreadSanitizer: the sweep runner (thread pool + result slots), the
# buffer pool (thread-local instances with plain refcounts — TSan proves the
# pools really are disjoint), and the classifier/flow-cache/Matcher suites
# with the LRU-table, flow-state and FloodGuard ones (each card's Matcher
# owns its compiled structure and flow tables, and its FloodGuard its source
# table, but sweep tasks build them on pool threads — TSan proves they
# really are shared-nothing).
# SHA-256 picks its compression body (SHA-NI or portable) once per process,
# and pool threads hash with it: the SHA-256, HMAC, policy-parser and
# policy fan-out suites run here, and the policy-convergence bench runs at
# --jobs 4 with a PolicyServer and its agents on every pool thread.
# The fleet bench then runs at --jobs 4: each sweep task builds a full
# multi-switch fabric (TopologyBuilder, shared AddressDirectory, bounded
# FIBs) and drives its simulation on a pool thread, proving the fleet-scale
# path is shared-nothing too.
#
# Usage: scripts/ci_tsan.sh [build-dir]   (default: build-tsan)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-tsan}"

export TSAN_OPTIONS="halt_on_error=1:second_deadlock_stack=1"

cmake -B "$BUILD_DIR" -S . -DTSAN=ON -DBARB_WERROR=ON
cmake --build "$BUILD_DIR" -j "$(nproc)" \
  --target core_sweep_runner_test net_buffer_pool_stress_test \
  firewall_classifier_test firewall_flow_cache_test firewall_matcher_test \
  util_lru_table_test firewall_flow_state_test firewall_flood_guard_test \
  crypto_sha256_test crypto_hmac_test firewall_policy_test firewall_policy_fanout_test \
  fleet_goodput fleet_policy_convergence fuzz_main
ctest --test-dir "$BUILD_DIR" --output-on-failure \
  -R 'SweepRunner|DerivePointSeed|ResolveJobs|JobsFromCli|BufferPoolThreading|CompiledClassifier|FlowCache|Matcher|LruTable|FlowState|FloodGuard|Sha256|HmacSha256|ConstantTimeEqual|DeriveKey|PolicyParser|PolicyRoundTrip|PolicyFanout'
BARB_BENCH_FAST=1 "$BUILD_DIR"/bench/fleet_goodput --jobs 4
BARB_BENCH_FAST=1 "$BUILD_DIR"/bench/fleet_policy_convergence --jobs 4

# Policy-family seeds at --jobs 4: corpus generation, the pairwise analyzer,
# and the per-backend Matcher oracle all run on pool threads — TSan proves
# the policygen path is shared-nothing too.
"$BUILD_DIR"/tests/fuzz_main --family policy --seeds 8 --jobs 4
