// CLI driver for the scenario fuzzer (see sim_fuzzer.h).
//
//   fuzz_main --seed 42            run one seed
//   fuzz_main --seeds 100          run seeds base..base+99 (default base 1)
//   fuzz_main --base 1000          first seed for --seeds
//   fuzz_main --seed-file s.txt    run the seeds listed in a regression file
//   fuzz_main --family policy      restrict to one family (all|legacy|policy)
//   fuzz_main --jobs 4             distribute seeds over worker threads
//   fuzz_main --replay case.json   re-run the seed from a failure's scenario file
//   fuzz_main --verbose            print each case's scenario summary
//
// On failure: prints the seed, every violated invariant, the trace tail, and
// writes fuzz_failure_<seed>.json (replayable with --replay). Exit code 1.
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "core/runner.h"
#include "fuzz/sim_fuzzer.h"

namespace {

using barb::fuzz::FuzzOptions;
using barb::fuzz::FuzzOutcome;

void report_failure(const FuzzOutcome& out) {
  std::printf("\nFAIL seed=%" PRIu64 " (%s)\n", out.seed, out.summary.c_str());
  for (const auto& f : out.failures) {
    std::printf("  invariant violated: %s\n", f.c_str());
  }
  const std::string path = "fuzz_failure_" + std::to_string(out.seed) + ".json";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f != nullptr) {
    std::fwrite(out.scenario_json.data(), 1, out.scenario_json.size(), f);
    std::fclose(f);
    std::printf("  scenario written to %s (replay: fuzz_main --replay %s)\n",
                path.c_str(), path.c_str());
  }
  if (!out.trace_tail.empty()) {
    std::printf("  last frames on the wire:\n");
    // Indent the trace tail for readability.
    std::string line;
    for (char c : out.trace_tail) {
      if (c == '\n') {
        std::printf("    %s\n", line.c_str());
        line.clear();
      } else {
        line += c;
      }
    }
  }
  std::printf("  reproduce with: fuzz_main --seed %" PRIu64 "\n", out.seed);
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t base = 1;
  std::uint64_t count = 0;
  bool have_single = false;
  std::uint64_t single_seed = 0;
  std::vector<std::uint64_t> seed_list;
  int jobs = 1;
  FuzzOptions options;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--seed") {
      single_seed = std::strtoull(next(), nullptr, 0);
      have_single = true;
    } else if (arg == "--seeds") {
      count = std::strtoull(next(), nullptr, 0);
    } else if (arg == "--base") {
      base = std::strtoull(next(), nullptr, 0);
    } else if (arg == "--seed-file") {
      const char* path = next();
      if (!barb::fuzz::seeds_from_file(path, &seed_list)) {
        std::fprintf(stderr, "could not read seeds from %s\n", path);
        return 2;
      }
    } else if (arg == "--family") {
      const char* name = next();
      if (!barb::fuzz::family_from_name(name, &options.family)) {
        std::fprintf(stderr, "unknown family: %s (all|legacy|policy)\n", name);
        return 2;
      }
    } else if (arg == "--jobs") {
      jobs = std::atoi(next());
    } else if (arg == "--replay") {
      std::uint64_t seed = 0;
      if (!barb::fuzz::seed_from_scenario_file(next(), &seed)) {
        std::fprintf(stderr, "could not read a seed from %s\n", argv[i]);
        return 2;
      }
      single_seed = seed;
      have_single = true;
    } else if (arg == "--verbose") {
      options.verbose = true;
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: fuzz_main [--seed N | --seeds N [--base N] | --seed-file F]\n"
          "                 [--family all|legacy|policy] [--jobs N]\n"
          "                 [--replay scenario.json] [--verbose]\n");
      return 0;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return 2;
    }
  }

  if (have_single) {
    const FuzzOutcome out = barb::fuzz::run_seed(single_seed, options);
    if (out.ok) {
      std::printf("ok seed=%" PRIu64 " (%s, %" PRIu64 " differential checks, parse "
                  "oracle frames: testbed %" PRIu64 ", star %" PRIu64 ", fabric %" PRIu64
                  ", policy parser oracle corpora: %" PRIu64 ")\n",
                  out.seed, out.summary.c_str(), out.differential_checks,
                  out.parse_checks.testbed, out.parse_checks.star,
                  out.parse_checks.fabric, out.policy_parse_checks.corpora);
      return 0;
    }
    report_failure(out);
    return 1;
  }

  if (seed_list.empty()) {
    if (count == 0) count = 20;
    for (std::uint64_t i = 0; i < count; ++i) seed_list.push_back(base + i);
    std::printf("fuzzing %" PRIu64 " seeds starting at %" PRIu64 " (jobs=%d)\n",
                count, base, jobs);
  } else {
    count = seed_list.size();
    std::printf("fuzzing %" PRIu64 " listed seeds (jobs=%d)\n", count, jobs);
  }

  // Each seed is a shared-nothing simulation, so seeds parallelize with the
  // same slot-per-point scheme the sweep runner uses for experiments.
  barb::core::SweepRunner runner(barb::core::SweepRunner::Options{jobs, base});
  const auto outcomes = runner.run_indexed<FuzzOutcome>(
      seed_list.size(), [&](const barb::core::SweepPoint& point) {
        return barb::fuzz::run_seed(seed_list[point.index], options);
      });

  std::uint64_t passed = 0;
  std::uint64_t total_checks = 0;
  FuzzOutcome::ParseChecks parse_checks;
  FuzzOutcome::PolicyParseChecks policy_parse_checks;
  int failures = 0;
  for (const auto& out : outcomes) {
    total_checks += out.differential_checks;
    parse_checks.testbed += out.parse_checks.testbed;
    parse_checks.star += out.parse_checks.star;
    parse_checks.fabric += out.parse_checks.fabric;
    policy_parse_checks.corpora += out.policy_parse_checks.corpora;
    policy_parse_checks.rules += out.policy_parse_checks.rules;
    if (options.verbose) {
      std::printf("%s seed=%" PRIu64 " (%s)\n", out.ok ? "ok  " : "FAIL", out.seed,
                  out.summary.c_str());
    }
    if (out.ok) {
      ++passed;
    } else {
      ++failures;
      report_failure(out);
    }
  }
  std::printf("\n%" PRIu64 "/%" PRIu64 " seeds passed, %" PRIu64
              " differential checks total\n",
              passed, count, total_checks);
  std::printf("parse oracle frames: testbed %" PRIu64 ", star %" PRIu64 ", fabric %" PRIu64
              "\n",
              parse_checks.testbed, parse_checks.star, parse_checks.fabric);
  std::printf("policy parser oracle: %" PRIu64 " corpora, %" PRIu64 " rules\n",
              policy_parse_checks.corpora, policy_parse_checks.rules);
  return failures == 0 ? 0 : 1;
}
