// Randomized scenario fuzzer with invariant oracles.
//
// A 64-bit seed fully determines one fuzz case: a random topology (the
// paper's four-host testbed with a random firewall configuration, or a
// star of 2..6 plain hosts), a random rule-set, a random traffic mix
// (bulk TCP transfers, packet floods, pings), and a random link fault
// profile. Every firewall card (testbed and fabric) draws its matching
// backend: linear half the time, else stateful, compiled or
// compiled+flowcache. The case runs to quiescence and a set of invariant oracles is
// checked:
//
//  * conservation — per link direction, frames received equals frames
//    transmitted minus injected losses plus injected duplicates; per NIC,
//    every accepted frame was delivered or dropped (nothing vanishes);
//  * scheduler monotonicity — events execute in nondecreasing time order
//    (checked both directly on a randomized scheduler load and through
//    the frame taps' capture timestamps);
//  * TCP safety — no out-of-order or corrupted byte is ever delivered to
//    the application, transfers either complete or give up cleanly after
//    rto_retries, and a fault-free run retransmits nothing;
//  * differential rule-set — a three-way oracle: RuleSet::match (the
//    linear walk), an independent naive reference matcher, and the
//    compiled classifier must produce bit-identical verdicts (action,
//    matched rule, and traversal counters) on >= 10k random packets and
//    tuples, including VPG-encapsulated frames; then one card Matcher per
//    compiled backend, kept across rule-set pushes, must return the same
//    full verdict, so its flow cache never surfaces a previous push's;
//  * parse oracle — every frame a host's tap sees, fault-corrupted frames
//    included, parses the same under FrameView::parse and the reference
//    parser (tests/testutil/reference_frames.h): every field, the presence
//    of each layer, and the offset and length of the L3 and L4 spans.
//
// Failures reproduce deterministically: re-running the printed seed (or a
// scenario file written by a failing run) rebuilds the identical case.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace barb::fuzz {

// Which generator families a seed exercises. kLegacy is the original set
// (differential matcher, scheduler, testbed/star scenario, fabric); kPolicy
// is the realistic-policy-corpus family (generator -> analyzer ground truth
// -> three-way match oracle). kAll runs both; each family draws from its own
// salted stream, so enabling one never perturbs the other's scenarios.
enum class FuzzFamily { kAll, kLegacy, kPolicy };

// Parses "all" / "legacy" / "policy"; returns false on anything else.
bool family_from_name(const std::string& name, FuzzFamily* out);

struct FuzzOptions {
  // Frames kept per tap for the failure dump (the last N seen).
  std::size_t trace_tail = 16;
  // Extra per-case detail on stdout.
  bool verbose = false;
  FuzzFamily family = FuzzFamily::kAll;
};

struct FuzzOutcome {
  std::uint64_t seed = 0;
  bool ok = true;
  // One human-readable line per violated invariant.
  std::vector<std::string> failures;
  // Replayable scenario description (JSON; contains the seed).
  std::string scenario_json;
  // Canonical text dump of the last frames each tap saw (failure context).
  std::string trace_tail;
  // Packets + tuples compared against the reference matcher.
  std::uint64_t differential_checks = 0;
  // Frames the taps compared under both parsers, per scenario family.
  struct ParseChecks {
    std::uint64_t testbed = 0;
    std::uint64_t star = 0;
    std::uint64_t fabric = 0;
  } parse_checks;
  // Generated policy corpora parsed by parse_policy and by the reference
  // parser, and the rules in them.
  struct PolicyParseChecks {
    std::uint64_t corpora = 0;
    std::uint64_t rules = 0;
  } policy_parse_checks;
  // One-line description of the generated scenario.
  std::string summary;
};

// Runs the complete fuzz case for `seed` (differential oracle + simulated
// scenario + invariant checks).
FuzzOutcome run_seed(std::uint64_t seed, const FuzzOptions& options = {});

// Extracts the "seed" field from a scenario JSON written by a failing run.
// Scenarios are fully seed-derived, so the seed alone replays the case.
bool seed_from_scenario_file(const std::string& path, std::uint64_t* seed);

// Reads a regression seed list: one decimal seed per line, blank lines and
// '#' comments (full-line or trailing) ignored. Returns false if the file
// cannot be read or contains no seeds.
bool seeds_from_file(const std::string& path, std::vector<std::uint64_t>* seeds);

}  // namespace barb::fuzz
