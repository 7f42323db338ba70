// Shared configuration for the paper-reproduction benchmark binaries.
//
// Each binary regenerates one table or figure from the paper's evaluation
// and prints it as an aligned table plus CSV. Set BARB_BENCH_FAST=1 for a
// quick pass (shorter windows, fewer repetitions, coarser searches).
//
// Every grid-driving binary accepts `--jobs N` (or $BARB_JOBS) and executes
// its independent points through core::SweepRunner. Artifacts, tables, and
// stdout are byte-identical for every N at the same seed: per-point seeds
// derive from (base seed, point index) and results are collected
// slot-per-point, so only wall-clock changes. Progress/timing notes go to
// stderr to keep stdout deterministic.
#pragma once

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/experiments.h"
#include "core/report.h"
#include "core/runner.h"
#include "telemetry/artifact.h"
#include "util/logging.h"

namespace barb::bench {

inline bool fast_mode() {
  const char* env = std::getenv("BARB_BENCH_FAST");
  return env != nullptr && env[0] == '1';
}

// Output directory for bench artifacts (JSON, and CSV unless
// BARB_BENCH_CSV_DIR overrides it). Defaults to the current directory.
inline std::string out_dir() {
  const char* env = std::getenv("BARB_BENCH_OUT");
  return (env == nullptr || env[0] == '\0') ? "." : env;
}

inline core::MeasurementOptions bench_options() {
  // Suppress expected lockup warnings in the experiment output.
  Logger::instance().set_level(LogLevel::kError);
  core::MeasurementOptions opt;
  if (fast_mode()) {
    opt.window = sim::Duration::milliseconds(500);
    opt.repetitions = 1;
    opt.http_duration = sim::Duration::seconds(2);
  } else {
    opt.window = sim::Duration::seconds(2);
    opt.repetitions = 3;  // the paper averages three measurements per point
    opt.http_duration = sim::Duration::seconds(10);
  }
  return opt;
}

inline core::MinFloodSearchOptions bench_search_options() {
  core::MinFloodSearchOptions search;
  search.precision = fast_mode() ? 1.25 : 1.08;
  return search;
}

// Sweep runner honouring --jobs N / $BARB_JOBS (default 1 = exact serial
// path), seeded from the measurement options' base seed. Artifacts are
// byte-identical at every worker count.
inline core::SweepRunner make_runner(int argc, char** argv,
                                     const core::MeasurementOptions& opt) {
  core::SweepRunner::Options ro;
  ro.jobs = core::jobs_from_cli(argc, argv);
  ro.base_seed = opt.seed;
  return core::SweepRunner(ro);
}

// Copy of `opt` re-seeded for one sweep point.
inline core::MeasurementOptions with_seed(core::MeasurementOptions opt,
                                          std::uint64_t seed) {
  opt.seed = seed;
  return opt;
}

// Runs one task grid through the runner and notes wall-clock on stderr
// (stderr, not stdout: the figure output must not depend on --jobs).
template <typename R>
std::vector<R> run_sweep(core::SweepRunner& runner, const char* label,
                         std::vector<std::function<R(const core::SweepPoint&)>> tasks) {
  const auto t0 = std::chrono::steady_clock::now();
  auto results = runner.run(std::move(tasks));
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  std::fprintf(stderr, "(%s: %zu points, jobs=%d, %.2f s wall)\n", label,
               results.size(), runner.jobs(), secs);
  return results;
}

// Writes a table's CSV to <dir>/<name>.csv, where <dir> is
// $BARB_BENCH_CSV_DIR if set, else $BARB_BENCH_OUT, else ".". Exits the
// process with status 1 if the file cannot be written.
inline void maybe_write_csv(const char* name, const core::TextTable& table) {
  const char* csv_dir = std::getenv("BARB_BENCH_CSV_DIR");
  const std::string dir =
      (csv_dir != nullptr && csv_dir[0] != '\0') ? csv_dir : out_dir();
  const std::string path = dir + "/" + name + ".csv";
  std::FILE* f = std::fopen(path.c_str(), "w");
  bool ok = f != nullptr;
  if (ok) {
    const std::string csv = table.to_csv();
    ok = std::fwrite(csv.data(), 1, csv.size(), f) == csv.size();
    ok = std::fclose(f) == 0 && ok;
  }
  if (!ok) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(1);
  }
  std::printf("(csv written to %s)\n", path.c_str());
}

// Stamps the standard metadata every artifact carries.
inline void set_common_meta(telemetry::BenchArtifact& artifact,
                            const core::MeasurementOptions& opt) {
  artifact.set_meta("mode", fast_mode() ? "fast" : "full");
  artifact.set_meta("window_s", opt.window.to_seconds());
  artifact.set_meta("repetitions", static_cast<double>(opt.repetitions));
  artifact.set_meta("seed", static_cast<double>(opt.seed));
}

// Converts a rendered table into summary points: column 0 is x, every other
// column becomes one series named by its header. Cells that do not start
// with a number (e.g. "no DoS", "yes") are skipped.
inline void add_table_points(telemetry::BenchArtifact& artifact,
                             const core::TextTable& table) {
  const auto& headers = table.headers();
  for (const auto& row : table.rows()) {
    if (row.empty()) continue;
    char* end = nullptr;
    const double x = std::strtod(row[0].c_str(), &end);
    if (end == row[0].c_str()) continue;
    for (std::size_t c = 1; c < row.size() && c < headers.size(); ++c) {
      end = nullptr;
      const double y = std::strtod(row[c].c_str(), &end);
      if (end == row[c].c_str()) continue;
      artifact.add_point(headers[c], x, y);
    }
  }
}

// Writes BENCH_<figure>.json into $BARB_BENCH_OUT (default "."). Exits the
// process with status 1 if the file cannot be written.
inline void write_artifact(const telemetry::BenchArtifact& artifact) {
  const std::string path = artifact.write_to(out_dir());
  if (path.empty()) {
    std::fprintf(stderr, "cannot write %s to %s\n", artifact.filename().c_str(),
                 out_dir().c_str());
    std::exit(1);
  }
  std::printf("(bench artifact written to %s)\n", path.c_str());
}

inline void print_header(const char* title, const char* paper_ref) {
  std::printf("==============================================================\n");
  std::printf("%s\n", title);
  std::printf("Reproduces: %s\n", paper_ref);
  std::printf("%s\n", fast_mode() ? "(fast mode: reduced windows/repetitions)"
                                  : "(full mode; BARB_BENCH_FAST=1 for a quick pass)");
  std::printf("==============================================================\n\n");
}

}  // namespace barb::bench
