#include "core/experiments.h"

#include <memory>

#include "apps/http.h"
#include "apps/iperf.h"
#include "util/logging.h"

namespace barb::core {

namespace {

// Sampling cadence of record_flood_timeline's probe (sim clock).
constexpr sim::Duration kTimelineInterval = sim::Duration::milliseconds(50);

// Starts the attacker's flood of `flood`'s shape at `rate_pps` against the
// target's flood port and runs the simulation through the warm-up.
std::unique_ptr<apps::FloodGenerator> start_flood(Testbed& tb, const FloodSpec& flood,
                                                  double rate_pps,
                                                  const MeasurementOptions& options) {
  apps::FloodConfig fc;
  fc.target = tb.addresses().target;
  fc.target_port = kFloodPort;
  fc.type = flood.type;
  fc.rate_pps = rate_pps;
  fc.frame_size = flood.frame_size;
  fc.spoof_source = flood.spoof_source;
  auto generator = std::make_unique<apps::FloodGenerator>(tb.attacker(), fc);
  generator->start();
  tb.simulation().run_for(options.flood_warmup);
  return generator;
}

// One iperf TCP window from client to target, in Mbps. A window that never
// reports (a fully flooded path) is cancelled and scores 0.
double run_iperf_window(Testbed& tb, const MeasurementOptions& options) {
  auto& sim = tb.simulation();
  apps::IperfClient client(tb.client(), tb.addresses().target);
  std::optional<double> measured;
  client.run(apps::IperfClient::Mode::kTcp, options.window,
             [&](apps::IperfResult r) { measured = r.completed ? r.mbps : 0.0; });
  sim.run_for(options.window + options.grace);
  if (!measured) {
    client.cancel();
    sim.run_for(sim::Duration::milliseconds(1));
  }
  return measured.value_or(0.0);
}

// Runs `reps` iperf TCP measurements from client to target inside an
// already-settled testbed and records Mbps per repetition.
void run_bandwidth_reps(Testbed& tb, const MeasurementOptions& options, Stats& out) {
  for (int rep = 0; rep < options.repetitions; ++rep) {
    out.add(run_iperf_window(tb, options));
    tb.simulation().run_for(options.gap);
  }
}

}  // namespace

BandwidthPoint measure_available_bandwidth(const TestbedConfig& config,
                                           const MeasurementOptions& options) {
  sim::Simulation sim(options.seed);
  Testbed tb(sim, config);
  apps::IperfServer server(tb.target());
  server.start();
  tb.settle();

  BandwidthPoint point;
  run_bandwidth_reps(tb, options, point.mbps);
  return point;
}

BandwidthPoint measure_bandwidth_under_flood(const TestbedConfig& config,
                                             const FloodSpec& flood,
                                             const MeasurementOptions& options) {
  sim::Simulation sim(options.seed);
  Testbed tb(sim, config);
  apps::IperfServer server(tb.target());
  server.start();
  tb.settle();

  const auto generator = start_flood(tb, flood, flood.rate_pps, options);
  BandwidthPoint point;
  run_bandwidth_reps(tb, options, point.mbps);
  generator->stop();
  return point;
}

MinFloodResult find_min_dos_flood_rate(const TestbedConfig& config,
                                       const FloodSpec& flood,
                                       const MeasurementOptions& options,
                                       const MinFloodSearchOptions& search) {
  MinFloodResult result;

  // A single-repetition probe at one flood rate; also reports lockup.
  auto probe = [&](double rate) {
    sim::Simulation sim(options.seed);
    Testbed tb(sim, config);
    apps::IperfServer server(tb.target());
    server.start();
    tb.settle();

    const auto generator = start_flood(tb, flood, rate, options);
    const double mbps = run_iperf_window(tb, options);
    ++result.probes;
    if (tb.target_firewall() != nullptr && tb.target_firewall()->locked_up()) {
      result.lockup_observed = true;
    }
    return mbps;
  };

  // Exponential ladder to bracket the DoS rate.
  double lo = 0;  // highest rate known to still leave bandwidth
  double hi = 0;  // lowest rate known to cause DoS
  for (double rate = search.start_rate_pps; rate <= search.max_rate_pps;
       rate *= search.growth) {
    const double mbps = probe(rate);
    if (mbps < search.dos_threshold_mbps) {
      hi = rate;
      break;
    }
    lo = rate;
  }
  if (hi == 0) return result;  // no DoS up to max rate
  if (lo == 0) {
    result.rate_pps = hi;  // DoS at the very first probe
    return result;
  }

  // Bisect to the requested precision.
  while (hi / lo > search.precision) {
    const double mid = std::sqrt(lo * hi);  // geometric midpoint
    if (probe(mid) < search.dos_threshold_mbps) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  result.rate_pps = hi;
  return result;
}

FloodTimeline record_flood_timeline(const TestbedConfig& config,
                                    const FloodSpec& flood,
                                    const MeasurementOptions& options) {
  // The registry outlives everything it samples: declared first, destroyed
  // last, and only sampled while the simulation below is alive.
  telemetry::MetricRegistry registry;
  sim::Simulation sim(options.seed);
  Testbed tb(sim, config);
  apps::IperfServer server(tb.target());
  server.start();
  tb.settle();
  tb.register_metrics(registry);

  registry.counter_fn("iperf.server_rx_bytes", "host=target", [&server] {
    return static_cast<double>(server.tcp_bytes_received());
  });
  // Interval goodput: Mbps delivered to the server since the previous probe
  // sample. The probe samples each gauge exactly once per tick, so the
  // mutable previous-sample state stays consistent and deterministic.
  struct GoodputState {
    std::uint64_t prev_bytes = 0;
    double prev_t = 0;
  };
  auto gp = std::make_shared<GoodputState>();
  gp->prev_t = sim.now().to_seconds();
  registry.gauge("iperf.goodput_mbps", "host=target", [&server, &sim, gp] {
    const double now = sim.now().to_seconds();
    const std::uint64_t bytes = server.tcp_bytes_received();
    const double dt = now - gp->prev_t;
    const double mbps =
        dt > 0 ? static_cast<double>(bytes - gp->prev_bytes) * 8.0 / dt / 1e6 : 0.0;
    gp->prev_bytes = bytes;
    gp->prev_t = now;
    return mbps;
  });

  telemetry::TimeSeriesProbe probe(sim, registry, kTimelineInterval);
  probe.start();

  std::unique_ptr<apps::FloodGenerator> generator;
  if (flood.rate_pps > 0) generator = start_flood(tb, flood, flood.rate_pps, options);

  FloodTimeline result;
  result.mbps = run_iperf_window(tb, options);
  if (generator) generator->stop();
  probe.stop();
  result.recording = probe.recording();
  return result;
}

HttpPoint measure_http_performance(const TestbedConfig& config,
                                   const MeasurementOptions& options,
                                   std::size_t page_bytes) {
  sim::Simulation sim(options.seed);
  Testbed tb(sim, config);
  apps::HttpServer server(tb.target(), 80);
  server.add_page("/", page_bytes);
  server.start();
  tb.settle();

  apps::HttpLoadClient client(tb.client(), tb.addresses().target, 80, "/");
  HttpPoint point;
  bool done = false;
  client.run(options.http_duration, [&](apps::HttpLoadResult r) {
    point.fetches = r.fetches;
    point.errors = r.errors;
    point.fetches_per_sec = r.fetches_per_sec;
    point.mean_connect_ms = r.mean_connect_ms;
    point.mean_response_ms = r.mean_response_ms;
    done = true;
  });
  sim.run_for(options.http_duration + options.grace);
  if (!done) {
    BARB_WARN("http experiment did not complete; reporting zeros");
  }
  return point;
}

}  // namespace barb::core
