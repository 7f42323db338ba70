// Experiment harness: the validation methodology of the paper, expressed as
// reusable measurements. Every data point runs in a fresh deterministic
// Simulation so points are independent and reproducible.
//
//  * measure_available_bandwidth   — Figure 2 points
//  * measure_bandwidth_under_flood — Figure 3(a) points
//  * find_min_dos_flood_rate       — Figure 3(b) points (ladder + bisection,
//    mirroring "incrementally increasing the flood rate until the measured
//    bandwidth fell to approximately 0 Mbps")
//  * measure_http_performance      — Table 1 rows
#pragma once

#include <optional>

#include "apps/flood_generator.h"
#include "core/testbed.h"
#include "telemetry/probe.h"
#include "util/stats.h"

namespace barb::core {

struct MeasurementOptions {
  // One bandwidth measurement window (the paper used longer wall-clock runs;
  // window length only narrows variance, not the mean).
  sim::Duration window = sim::Duration::seconds(2);
  int repetitions = 3;  // the paper averages three measurements per point
  sim::Duration gap = sim::Duration::milliseconds(100);
  sim::Duration flood_warmup = sim::Duration::milliseconds(300);
  // Extra wall-clock allowance for a measurement to report before it is
  // declared dead (DoS probes need this: a fully flooded connection may
  // never even establish).
  sim::Duration grace = sim::Duration::seconds(1);
  sim::Duration http_duration = sim::Duration::seconds(10);
  std::uint64_t seed = 1;
};

struct FloodSpec {
  apps::FloodType type = apps::FloodType::kUdp;
  double rate_pps = 10000;
  std::size_t frame_size = 60;  // minimum-size frames, the attacker's optimum
  bool spoof_source = false;
};

struct BandwidthPoint {
  Stats mbps;  // one sample per repetition (0 for failed measurements)
  double mean() const { return mbps.empty() ? 0.0 : mbps.mean(); }
  double stddev() const { return mbps.stddev(); }
};

// Available bandwidth (iperf TCP) with no attack traffic.
BandwidthPoint measure_available_bandwidth(const TestbedConfig& config,
                                           const MeasurementOptions& options = {});

// Available bandwidth while the attacker floods the target.
BandwidthPoint measure_bandwidth_under_flood(const TestbedConfig& config,
                                             const FloodSpec& flood,
                                             const MeasurementOptions& options = {});

struct MinFloodResult {
  // Minimum flood rate (packets/s) that drives available bandwidth below
  // the DoS threshold; nullopt if no rate up to max_rate_pps succeeds.
  std::optional<double> rate_pps;
  // The device latched up during the search (the EFW deny-flood failure).
  bool lockup_observed = false;
  int probes = 0;
};

struct MinFloodSearchOptions {
  double start_rate_pps = 500;
  double max_rate_pps = 160000;  // above the 100 Mbps maximum frame rate
  double growth = 1.6;           // ladder factor
  double precision = 1.08;       // stop when hi/lo is below this
  double dos_threshold_mbps = 0.5;
};

MinFloodResult find_min_dos_flood_rate(const TestbedConfig& config,
                                       const FloodSpec& flood,
                                       const MeasurementOptions& options = {},
                                       const MinFloodSearchOptions& search = {});

struct FloodTimeline {
  telemetry::ProbeRecording recording;
  double mbps = 0;  // goodput of the accompanying iperf transfer
};

// One flood + one iperf transfer with every testbed metric sampled every
// 50 ms of sim time: the time-series behind a BENCH_*.json artifact
// (goodput vs. time, firewall drops, queue depths, ...). Deterministic:
// identical seeds yield identical recordings. A flood rate <= 0 records an
// attack-free baseline.
FloodTimeline record_flood_timeline(const TestbedConfig& config,
                                    const FloodSpec& flood,
                                    const MeasurementOptions& options = {});

struct HttpPoint {
  double fetches_per_sec = 0;
  double mean_connect_ms = 0;
  double mean_response_ms = 0;
  std::uint64_t fetches = 0;
  std::uint64_t errors = 0;
};

// Web-server performance behind the device (http_load against the target).
HttpPoint measure_http_performance(const TestbedConfig& config,
                                   const MeasurementOptions& options = {},
                                   std::size_t page_bytes = 10 * 1024);

}  // namespace barb::core
