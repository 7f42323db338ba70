// Benchmark driver behind perfbench/run.py.
//
// Runs one workload through the simulator's public API, in one process on
// one thread, repeating whole passes of it until the time budget is spent.
// Each pass prints one JSON line: host timings, the simulated outputs of
// every point (run.py checks them against committed references) and, in a
// traced pass, the raw sums behind the per-layer metrics.
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//   perfbench_driver --selftest
//
// A traced pass splices a timing FrameSink in front of every receiver — both
// ports of every link (link->switch, link->NIC) and every host (NIC->stack)
// — and accounts nested spans by call stack, so self time is a span minus
// the spans inside it. Work that runs inside scheduler events, where no seam
// sees it (the rule walk on a busy card, checksums, crypto, policy parsing),
// is timed afterwards by replaying frames captured at the firewall under
// test through the same public calls. With --trace 1 the passes alternate
// untraced/traced, so the traced run also states its own overhead.
#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <queue>
#include <string>
#include <string_view>
#include <vector>

#include "apps/flood_generator.h"
#include "apps/iperf.h"
#include "core/experiments.h"
#include "core/runner.h"
#include "core/testbed.h"
#include "core/topology.h"
#include "crypto/aead.h"
#include "crypto/hmac.h"
#include "firewall/nic_firewall.h"
#include "firewall/policy.h"
#include "firewall/policy_agent.h"
#include "firewall/policy_protocol.h"
#include "firewall/policy_server.h"
#include "firewall/policygen/policy_corpus.h"
#include "net/checksum.h"
#include "net/frame_buffer.h"
#include "net/frame_view.h"
#include "util/logging.h"

namespace {

using namespace barb;
using Clock = std::chrono::steady_clock;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double seconds_between(std::int64_t t0, std::int64_t t1) {
  return static_cast<double>(t1 - t0) * 1e-9;
}

// Resident set size now (`field` "VmRSS") or its high-water mark ("VmHWM"),
// in KiB. /proc rather than getrusage: ru_maxrss also counts the image of
// the process that exec'd this one.
double rss_kib(std::string_view field = "VmRSS") {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    const std::string_view l(line);
    if (l.starts_with(field) && l.size() > field.size() && l[field.size()] == ':') {
      kib = std::strtod(line + field.size() + 1, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kib;
}

// --- JSON output -----------------------------------------------------------

class JsonObject {
 public:
  JsonObject& num(std::string_view k, double v) {
    key(k);
    if (!std::isfinite(v)) {
      body_ += "null";
      return *this;
    }
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    body_ += buf;
    return *this;
  }
  JsonObject& count(std::string_view k, std::uint64_t v) {
    key(k);
    body_ += std::to_string(v);
    return *this;
  }
  JsonObject& flag(std::string_view k, bool v) {
    key(k);
    body_ += v ? "true" : "false";
    return *this;
  }
  JsonObject& null(std::string_view k) {
    key(k);
    body_ += "null";
    return *this;
  }
  JsonObject& str(std::string_view k, std::string_view v) {
    key(k);
    body_ += '"';
    body_ += v;  // callers pass identifiers only: no escaping needed
    body_ += '"';
    return *this;
  }
  JsonObject& raw(std::string_view k, const std::string& json) {
    key(k);
    body_ += json;
    return *this;
  }
  std::string done() const { return "{" + body_ + "}"; }

 private:
  void key(std::string_view k) {
    if (!body_.empty()) body_ += ',';
    body_ += '"';
    body_ += k;
    body_ += "\":";
  }
  std::string body_;
};

// --- seams and spans -------------------------------------------------------

enum Seam : int { kSwitchRx, kNicRx, kFirewallNicRx, kHostRx, kSeamCount };
constexpr std::array<const char*, kSeamCount> kSeamNames = {
    "link.switch_rx", "stack.nic_rx", "firewall.nic_rx", "stack.host_rx"};

struct SeamTotals {
  std::uint64_t count = 0;
  std::int64_t incl_ns = 0;
  std::int64_t self_ns = 0;
};

// Nested span accounting for the seams of one simulation. Spans nest by call
// stack: a link->NIC delivery that hands the frame straight to the host
// stack contains the NIC->host span, and its self time excludes it.
class SpanBook {
 public:
  void enter() { child_ns_.push_back(0); }
  void exit(Seam seam, std::int64_t ns) {
    const std::int64_t children = child_ns_.back();
    child_ns_.pop_back();
    SeamTotals& t = totals_[seam];
    ++t.count;
    t.incl_ns += ns;
    t.self_ns += ns - children;
    if (child_ns_.empty()) {
      top_ns_ += ns;
    } else {
      child_ns_.back() += ns;
    }
  }
  const SeamTotals& totals(Seam seam) const { return totals_[seam]; }
  // Time inside outermost spans: the seams' share of the event loop.
  std::int64_t top_ns() const { return top_ns_; }

 private:
  std::vector<std::int64_t> child_ns_;
  std::array<SeamTotals, kSeamCount> totals_{};
  std::int64_t top_ns_ = 0;
};

// Frames captured at the firewall under test for the replay probes: every
// kCaptureStride-th frame, at most kCaptureCap per simulation. Bytes are
// copied so the capture never holds pool buffers (that would change the
// pool's allocation counts).
constexpr std::uint64_t kCaptureStride = 8;
constexpr std::size_t kCaptureCap = 256;

// Per-simulation trace state shared by all its timing sinks.
struct Tracer {
  explicit Tracer(sim::Simulation& s) : sim(s) {}

  void before(const net::Packet& pkt, bool capture) {
    pending_max = std::max(pending_max, sim.scheduler().pending_count());
    if (!capture || captured_seen++ % kCaptureStride != 0 ||
        frames.size() >= kCaptureCap) {
      return;
    }
    const std::int64_t t0 = now_ns();
    frames.push_back(pkt.copy_bytes());
    harness_ns += now_ns() - t0;
  }

  sim::Simulation& sim;
  SpanBook book;
  std::size_t pending_max = 0;
  std::vector<std::vector<std::uint8_t>> frames;
  std::uint64_t captured_seen = 0;
  std::int64_t harness_ns = 0;  // capture copies, charged to no layer
};

// Times one receiver: spliced between a sender and its original sink.
class TimingSink final : public link::FrameSink {
 public:
  TimingSink(Tracer& tracer, Seam seam, link::FrameSink* next, bool capture)
      : tracer_(tracer), seam_(seam), next_(next), capture_(capture) {}

  void deliver(net::Packet pkt) override {
    tracer_.before(pkt, capture_);
    tracer_.book.enter();
    const std::int64_t t0 = now_ns();
    next_->deliver(std::move(pkt));
    tracer_.book.exit(seam_, now_ns() - t0);
  }

 private:
  Tracer& tracer_;
  Seam seam_;
  link::FrameSink* next_;
  bool capture_;
};

// Splices timing sinks in front of every receiver of the fabric, the way
// golden_trace_test splices FrameTap. `capture_host` selects the link->NIC
// seam whose frames feed the replays.
void splice_seams(core::Fabric& fabric, Tracer& tracer, int capture_host,
                  std::deque<TimingSink>& sinks) {
  const stack::Nic* capture_nic = &fabric.host(capture_host).nic();
  for (const auto& link : fabric.links()) {
    for (link::LinkPort* port : {&link->a(), &link->b()}) {
      link::FrameSink* next = port->sink();
      if (next == nullptr) continue;
      Seam seam = kSwitchRx;
      if (auto* nic = dynamic_cast<stack::Nic*>(next)) {
        seam = dynamic_cast<firewall::FirewallNic*>(nic) != nullptr ? kFirewallNicRx
                                                                   : kNicRx;
      }
      sinks.emplace_back(tracer, seam, next, next == capture_nic);
      port->connect_sink(&sinks.back());
    }
  }
  for (int h = 0; h < fabric.num_hosts(); ++h) {
    stack::Host& host = fabric.host(h);
    sinks.emplace_back(tracer, kHostRx, &host, false);
    host.nic().set_host_sink(&sinks.back());
  }
}

// --- replay probes ----------------------------------------------------------

constexpr std::size_t kReplayOps = 2048;

volatile std::uint64_t g_sink = 0;  // keeps replayed results alive

struct ReplaySum {
  std::int64_t ns = 0;
  double units = 0;  // operations, or KiB for the per-KiB probes

  void add(const ReplaySum& o) {
    ns += o.ns;
    units += o.units;
  }
  double per_unit() const {
    return units > 0 ? static_cast<double>(ns) / units : std::nan("");
  }
};

// Repeats `op` over `n` inputs until at least kReplayOps operations ran; one
// round over the inputs counts `units_per_round` units.
template <typename Op>
ReplaySum replay(std::size_t n, double units_per_round, Op&& op) {
  ReplaySum out;
  if (n == 0) return out;
  const std::size_t rounds = (kReplayOps + n - 1) / n;
  std::uint64_t acc = 0;
  const std::int64_t t0 = now_ns();
  for (std::size_t r = 0; r < rounds; ++r) {
    for (std::size_t i = 0; i < n; ++i) acc += op(i);
  }
  out.ns = now_ns() - t0;
  out.units = units_per_round * static_cast<double>(rounds);
  g_sink = g_sink + acc;
  return out;
}

struct FrameReplays {
  ReplaySum parse, match, checksum, aead;
};

// Times FrameView::parse, the installed matcher, transport_checksum and
// Aead::open on the captured frames. The AEAD probe seals each frame's IP
// payload under a fixed key first (untimed), so it measures Aead::open on
// this workload's frame sizes; on VPG points those payloads are the VPG
// frames themselves.
FrameReplays replay_frames(const std::vector<std::vector<std::uint8_t>>& frames,
                           const firewall::RuleSet* rules) {
  FrameReplays out;
  std::vector<net::FrameView> views;
  for (const auto& f : frames) {
    if (auto v = net::FrameView::parse(f)) views.push_back(*v);
  }
  out.parse = replay(frames.size(), static_cast<double>(frames.size()),
                     [&](std::size_t i) {
                       return static_cast<std::uint64_t>(
                           net::FrameView::parse(frames[i]).has_value());
                     });
  if (rules != nullptr) {
    out.match = replay(views.size(), static_cast<double>(views.size()),
                       [&](std::size_t i) {
                         return static_cast<std::uint64_t>(
                             rules->match(views[i]).rules_traversed);
                       });
  }

  struct Segment {
    net::Ipv4Address src, dst;
    std::uint8_t protocol;
    std::span<const std::uint8_t> bytes;
  };
  std::vector<Segment> segments;
  double segment_kib = 0;
  for (const auto& v : views) {
    if (!v.ip || (!v.tcp && !v.udp)) continue;
    segments.push_back({v.ip->src, v.ip->dst, v.ip->protocol, v.l3_payload});
    segment_kib += static_cast<double>(v.l3_payload.size()) / 1024.0;
  }
  out.checksum = replay(segments.size(), segment_kib, [&](std::size_t i) {
    const Segment& s = segments[i];
    return static_cast<std::uint64_t>(
        net::transport_checksum(s.src, s.dst, s.protocol, s.bytes));
  });

  crypto::Aead::Key key{};
  for (std::size_t i = 0; i < key.size(); ++i) {
    key[i] = static_cast<std::uint8_t>(i * 7 + 1);
  }
  struct Sealed {
    crypto::Aead::Nonce nonce;
    std::vector<std::uint8_t> bytes;
  };
  std::vector<Sealed> sealed;
  double sealed_kib = 0;
  const std::array<std::uint8_t, 16> aad{};
  for (std::size_t i = 0; i < views.size(); ++i) {
    if (!views[i].ip) continue;
    Sealed s{};
    for (std::size_t b = 0; b < 8; ++b) {
      s.nonce[4 + b] = static_cast<std::uint8_t>(i >> (8 * b));
    }
    s.bytes = crypto::Aead::seal(key, s.nonce, aad, views[i].l3_payload);
    sealed_kib += static_cast<double>(s.bytes.size()) / 1024.0;
    sealed.push_back(std::move(s));
  }
  out.aead = replay(sealed.size(), sealed_kib, [&](std::size_t i) {
    const auto opened = crypto::Aead::open(key, sealed[i].nonce, aad, sealed[i].bytes);
    return static_cast<std::uint64_t>(opened ? opened->size() : 0);
  });
  return out;
}

class NullSink final : public link::FrameSink {
 public:
  void deliver(net::Packet) override {}
};

// Mean self nanoseconds of StandardNic::deliver on the captured frames, for
// a workload in which no frame crosses a link->StandardNic seam (fleet1024's
// attackers receive nothing): its per-crossing cost is still measured, on a
// fresh card with the capture host's address. Packets are built untimed.
double replay_standard_nic(const std::vector<std::vector<std::uint8_t>>& frames,
                           net::MacAddress mac) {
  sim::Simulation scratch(1);
  stack::StandardNic nic(scratch, mac, "replay");
  NullSink host;
  nic.set_host_sink(&host);
  std::int64_t ns = 0;
  std::size_t delivered = 0;
  while (delivered < kReplayOps && !frames.empty()) {
    std::vector<net::Packet> packets;
    for (const auto& f : frames) {
      packets.emplace_back(net::BufferPool::instance().create(f), sim::TimePoint::origin(),
                           packets.size());
    }
    const std::int64_t t0 = now_ns();
    for (auto& pkt : packets) nic.deliver(std::move(pkt));
    ns += now_ns() - t0;
    delivered += packets.size();
  }
  return delivered > 0 ? static_cast<double>(ns) / static_cast<double>(delivered)
                       : std::nan("");
}

// Mean milliseconds of `op` over at least kPushReplayMs of repetitions.
constexpr double kPushReplayMs = 20.0;

template <typename Op>
double mean_ms(Op&& op) {
  int reps = 0;
  const std::int64_t t0 = now_ns();
  std::int64_t t1 = t0;
  do {
    op();
    ++reps;
    t1 = now_ns();
  } while (reps < 3 || static_cast<double>(t1 - t0) * 1e-6 < kPushReplayMs);
  return static_cast<double>(t1 - t0) * 1e-6 / reps;
}

// --- passes and points -------------------------------------------------------

const std::vector<std::uint8_t> kDeploymentKey(32, 0x5c);

struct PointRecord {
  std::string id;
  JsonObject out;     // simulated outputs, checked against the references
  std::string trace;  // traced passes: phase spans and per-seam sums
};

// Host-speed normalization. The host is shared, and its speed drifts by
// tens of percent over seconds to minutes with neighbouring load, moving
// every timing alike. So the end-to-end timings are scaled to a reference
// speed: a fixed calibration kernel, independent of the simulator (a faster
// simulator still reads faster), is timed before every simulation and every
// ~kRecalibrateNs of event loop, and each timed interval's host seconds are
// multiplied by kNominalCalibrationNs / (the kernel's latest time). The
// kernel mimics the simulator's mix: an event heap driving branchy updates
// to an 8 MiB table, so it feels the cache and memory contention the
// simulator feels (a cache-resident table tracked it about half as well).
constexpr double kNominalCalibrationNs = 2.5e6;
constexpr std::int64_t kRecalibrateNs = 100'000'000;
constexpr std::size_t kCalibrationTableWords = std::size_t{1} << 20;

class HostSpeed {
 public:
  // Times the kernel; returns its host nanoseconds.
  std::int64_t calibrate() {
    using Event = std::pair<std::uint64_t, std::uint32_t>;
    std::priority_queue<Event, std::vector<Event>, std::greater<Event>> heap;
    std::uint64_t x = 0x9e3779b97f4a7c15ULL, acc = 0;
    const std::int64_t t0 = now_ns();
    for (std::uint32_t i = 0; i < 64; ++i) heap.push({i, i});
    for (int i = 0; i < 12'000; ++i) {
      const Event e = heap.top();
      heap.pop();
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      std::uint64_t& slot = table_[x & (table_.size() - 1)];
      slot += x;
      std::uint64_t h = slot;
      for (int k = 0; k < 8; ++k) h = (h ^ (h >> 29)) * 0xbf58476d1ce4e5b9ULL;
      acc += h;
      heap.push({e.first + (x & 1023) + 1, e.second});
    }
    last_ns_ = now_ns() - t0;
    g_sink = g_sink + acc;
    return last_ns_;
  }
  double scale() const { return kNominalCalibrationNs / static_cast<double>(last_ns_); }

 private:
  std::vector<std::uint64_t> table_ = std::vector<std::uint64_t>(kCalibrationTableWords);
  std::int64_t last_ns_ = static_cast<std::int64_t>(kNominalCalibrationNs);
};

// Host time of one phase, as measured and scaled to the reference speed.
struct PhaseTime {
  double raw_s = 0, scaled_s = 0;

  void add(std::int64_t ns, double scale) {
    raw_s += static_cast<double>(ns) * 1e-9;
    scaled_s += static_cast<double>(ns) * 1e-9 * scale;
  }
  void add(const PhaseTime& o) {
    raw_s += o.raw_s;
    scaled_s += o.scaled_s;
  }
};

// Everything one pass over a workload accumulates.
struct PassTotals {
  PhaseTime build, install, settle, loop, teardown;
  std::uint64_t frames = 0, events = 0, flood_frames = 0;
  std::uint64_t pool_parses = 0, pool_allocs = 0;
  std::uint64_t rules_traversed = 0, fw_frames = 0;
  std::vector<double> calibration_ns;
  // First simulation of the pass: memory growth across its set-up.
  bool memory_recorded = false;
  double rss_setup_kib = 0;
  int hosts = 0;
  double audit_per_host_bytes = 0;
  // Traced passes only.
  std::array<SeamTotals, kSeamCount> seams{};
  std::int64_t seam_top_ns = 0, harness_ns = 0;
  std::size_t pending_max = 0;
  FrameReplays replays;
  std::string policy_text;  // largest policy installed on a firewall under test
  std::optional<firewall::DeviceProfile> policy_profile;
  std::vector<std::vector<std::uint8_t>> last_capture;  // for seams no frame crossed
  net::MacAddress capture_mac;
  std::vector<PointRecord> points;
};

struct Pass {
  HostSpeed& speed;
  bool traced;
  PassTotals totals;

  void calibrate() { totals.calibration_ns.push_back(static_cast<double>(speed.calibrate())); }
};

// One simulation ("point"): timed phases for set-up (build, install,
// settle), the event loop and teardown, with the loop's counts. In a traced
// pass it also owns the timing sinks. Declare it before the simulation
// objects: the sinks must outlive them, and its destructor times their
// teardown.
class PointRun {
 public:
  PointRun(Pass& pass, std::string id) : pass_(pass), id_(std::move(id)) {
    pass_.calibrate();
    rss0_ = rss_kib();
    t_mark_ = now_ns();
  }
  ~PointRun() {
    PhaseTime teardown;
    teardown.add(now_ns() - t_mark_, pass_.speed.scale());
    pass_.totals.teardown.add(teardown);
  }

  PointRun(const PointRun&) = delete;
  PointRun& operator=(const PointRun&) = delete;

  void built() { mark(build_); }
  void installed() { mark(install_); }
  void settled(core::Fabric& fabric) {
    mark(settle_);
    PassTotals& p = pass_.totals;
    if (!p.memory_recorded) {
      p.memory_recorded = true;
      p.rss_setup_kib = rss_kib() - rss0_;
      p.hosts = fabric.num_hosts();
      p.audit_per_host_bytes =
          static_cast<double>(fabric.memory_audit().per_host_bytes());
    }
  }

  // Starts the event-loop phase; a traced pass splices the seams first.
  void begin_loop(sim::Simulation& sim, core::Fabric& fabric, int capture_host) {
    sim_ = &sim;
    fabric_ = &fabric;
    if (pass_.traced) {
      tracer_.emplace(sim);
      splice_seams(fabric, *tracer_, capture_host, sinks_);
      pass_.totals.capture_mac = fabric.host(capture_host).mac();
    }
    pool0_ = net::BufferPool::instance().stats();
    t_mark_ = now_ns();
  }

  // Runs the simulation to `until` (or until it is stopped) in slices of
  // simulated time, recalibrating between slices on long loops. Slicing
  // leaves the timeline unchanged: run_until executes the same events in
  // the same order either way.
  void run_until(sim::TimePoint until) {
    const sim::Duration slice = sim::Duration::milliseconds(10);
    while (true) {
      sim_->run_until(std::min(sim_->now() + slice, until));
      if (sim_->stop_requested() || sim_->now() >= until) return;
      if (now_ns() - t_mark_ >= kRecalibrateNs) {
        mark(loop_);
        pass_.calibrate();
        t_mark_ = now_ns();
      }
    }
  }
  void run_for(sim::Duration d) { run_until(sim_->now() + d); }

  // Ends the loop phase and collects its counts. `fw` is the firewall under
  // test (null when the point has none) and `policy_text` its policy.
  void end_loop(const firewall::FirewallNic* fw, std::uint64_t flood_frames,
                const std::string& policy_text) {
    mark(loop_);
    const net::BufferPoolStats& pool = net::BufferPool::instance().stats();
    PassTotals& p = pass_.totals;
    p.build.add(build_);
    p.install.add(install_);
    p.settle.add(settle_);
    p.loop.add(loop_);
    for (const auto& link : fabric_->links()) {
      frames_ += link->a().stats().rx_frames + link->b().stats().rx_frames;
    }
    events_ = sim_->events_executed();
    p.frames += frames_;
    p.events += events_;
    p.flood_frames += flood_frames;
    p.pool_parses += pool.parses - pool0_.parses;
    p.pool_allocs += pool.allocations() - pool0_.allocations();
    if (fw != nullptr) {
      p.rules_traversed += fw->fw_stats().rules_traversed;
      p.fw_frames += fw->fw_stats().frames_processed;
    }
    if (pass_.traced) trace(fw, policy_text);
    t_mark_ = now_ns();
  }

  // Records the point's simulated outputs.
  void finish(JsonObject outputs) {
    outputs.count("frames", frames_);
    pass_.totals.points.push_back({id_, std::move(outputs), trace_});
    t_mark_ = now_ns();
  }

 private:
  // Closes the current phase at now.
  void mark(PhaseTime& phase) {
    const std::int64_t t = now_ns();
    phase.add(t - t_mark_, pass_.speed.scale());
    t_mark_ = t;
  }

  // Collects the seam sums and runs the frame replays (untimed).
  void trace(const firewall::FirewallNic* fw, const std::string& policy_text) {
    PassTotals& p = pass_.totals;
    JsonObject seams;
    for (int s = 0; s < kSeamCount; ++s) {
      const SeamTotals& t = tracer_->book.totals(static_cast<Seam>(s));
      p.seams[s].count += t.count;
      p.seams[s].incl_ns += t.incl_ns;
      p.seams[s].self_ns += t.self_ns;
      seams.raw(kSeamNames[s], JsonObject()
                                   .count("count", t.count)
                                   .num("incl_ns", static_cast<double>(t.incl_ns))
                                   .num("self_ns", static_cast<double>(t.self_ns))
                                   .done());
    }
    trace_ = JsonObject()
                 .num("build_s", build_.raw_s)
                 .num("install_s", install_.raw_s)
                 .num("settle_s", settle_.raw_s)
                 .num("loop_s", loop_.raw_s)
                 .count("events", events_)
                 .raw("seams", seams.done())
                 .done();
    p.seam_top_ns += tracer_->book.top_ns();
    p.harness_ns += tracer_->harness_ns;
    p.pending_max = std::max(p.pending_max, tracer_->pending_max);
    const FrameReplays r =
        replay_frames(tracer_->frames, fw != nullptr ? &fw->rule_set() : nullptr);
    p.replays.parse.add(r.parse);
    p.replays.match.add(r.match);
    p.replays.checksum.add(r.checksum);
    p.replays.aead.add(r.aead);
    if (fw != nullptr && policy_text.size() > p.policy_text.size()) {
      p.policy_text = policy_text;
      p.policy_profile = fw->profile();
    }
    p.last_capture = std::move(tracer_->frames);
  }

  Pass& pass_;
  std::string id_;
  double rss0_ = 0;
  std::int64_t t_mark_ = 0;  // start of the phase being timed
  PhaseTime build_, install_, settle_, loop_;
  sim::Simulation* sim_ = nullptr;
  core::Fabric* fabric_ = nullptr;
  net::BufferPoolStats pool0_;
  std::optional<Tracer> tracer_;
  std::deque<TimingSink> sinks_;
  std::uint64_t frames_ = 0, events_ = 0;
  std::string trace_;
};

// --- workloads ---------------------------------------------------------------

constexpr int kTargetHost = 3;  // Testbed host order: policy, attacker, client, target

// bench_common.h's fast-mode measurement settings.
core::MeasurementOptions fast_options(std::uint64_t seed) {
  core::MeasurementOptions opt;
  opt.window = sim::Duration::milliseconds(500);
  opt.repetitions = 1;
  opt.seed = seed;
  return opt;
}

struct ProbeResult {
  double mbps = 0;
  bool lockup = false;
};

// One fig3b probe, step for step as in core::find_min_dos_flood_rate, so the
// outputs equal the shipped bench's.
ProbeResult minflood_probe(Pass& pass, const std::string& id,
                           const core::TestbedConfig& config, double rate,
                           const core::MeasurementOptions& options) {
  PointRun point(pass, id);
  sim::Simulation sim(options.seed);
  core::Testbed tb(sim, config);
  point.built();
  apps::IperfServer server(tb.target());
  server.start();
  point.installed();
  tb.settle();
  point.settled(tb.fabric());
  point.begin_loop(sim, tb.fabric(), kTargetHost);

  apps::FloodConfig fc;
  fc.target = tb.addresses().target;
  fc.target_port = core::kFloodPort;
  fc.type = apps::FloodType::kTcpData;
  fc.rate_pps = rate;
  apps::FloodGenerator generator(tb.attacker(), fc);
  generator.start();
  point.run_for(options.flood_warmup);

  apps::IperfClient client(tb.client(), tb.addresses().target);
  std::optional<double> measured;
  client.run(apps::IperfClient::Mode::kTcp, options.window,
             [&](apps::IperfResult r) { measured = r.completed ? r.mbps : 0.0; });
  point.run_for(options.window + options.grace);
  if (!measured) {
    client.cancel();
    point.run_for(sim::Duration::milliseconds(1));
  }
  ProbeResult out;
  out.mbps = measured.value_or(0.0);
  out.lockup = tb.target_firewall() != nullptr && tb.target_firewall()->locked_up();
  point.end_loop(tb.target_firewall(), generator.packets_sent(), tb.target_policy_text());
  point.finish(JsonObject()
                   .num("rate_pps", rate)
                   .num("mbps", out.mbps)
                   .flag("lockup", out.lockup));
  return out;
}

// minflood: the fig3b fast-mode grid, one ladder-and-bisection search per
// cell (core::find_min_dos_flood_rate's search). Cell slots and seeds follow
// fig3b_min_flood_rate.
void run_minflood(Pass& pass, std::uint64_t base_seed) {
  struct Series {
    const char* name;
    core::FirewallKind kind;
    firewall::RuleAction action;
  };
  const Series series[] = {
      {"efw-allow", core::FirewallKind::kEfw, firewall::RuleAction::kAllow},
      {"adf-allow", core::FirewallKind::kAdf, firewall::RuleAction::kAllow},
      {"adf-deny", core::FirewallKind::kAdf, firewall::RuleAction::kDeny},
      {"efw-deny", core::FirewallKind::kEfw, firewall::RuleAction::kDeny},
  };
  const int depths[] = {1, 8, 16, 32, 64};
  core::MinFloodSearchOptions search;
  search.precision = 1.25;  // fast mode

  std::uint64_t slot = 0;
  for (const Series& s : series) {
    for (const int depth : depths) {
      const auto options = fast_options(core::derive_point_seed(base_seed, slot++));
      core::TestbedConfig config;
      config.firewall = s.kind;
      config.action_rule_depth = depth;
      config.flood_action = s.action;
      const std::string cell = std::string(s.name) + "/d" + std::to_string(depth);
      int probes = 0;
      bool lockup = false;
      auto probe = [&](double rate) {
        const ProbeResult r = minflood_probe(
            pass, cell + "/p" + std::to_string(probes++), config, rate, options);
        lockup = lockup || r.lockup;
        return r.mbps;
      };

      std::optional<double> found;
      double lo = 0, hi = 0;
      for (double rate = search.start_rate_pps; rate <= search.max_rate_pps;
           rate *= search.growth) {
        if (probe(rate) < search.dos_threshold_mbps) {
          hi = rate;
          break;
        }
        lo = rate;
      }
      if (hi != 0 && lo == 0) {
        found = hi;
      } else if (hi != 0) {
        while (hi / lo > search.precision) {
          const double mid = std::sqrt(lo * hi);
          if (probe(mid) < search.dos_threshold_mbps) {
            hi = mid;
          } else {
            lo = mid;
          }
        }
        found = hi;
      }
      // The cell's result rides on its last probe.
      JsonObject& last = pass.totals.points.back().out;
      if (found) {
        last.num("cell_rate_pps", *found);
      } else {
        last.null("cell_rate_pps");
      }
      last.flag("cell_lockup", lockup);
    }
  }
}

// One fig2 point: core::measure_available_bandwidth with one repetition.
void bulk_point(Pass& pass, const std::string& id, const core::TestbedConfig& config,
                const core::MeasurementOptions& options) {
  PointRun point(pass, id);
  sim::Simulation sim(options.seed);
  core::Testbed tb(sim, config);
  point.built();
  apps::IperfServer server(tb.target());
  server.start();
  point.installed();
  tb.settle();
  point.settled(tb.fabric());
  point.begin_loop(sim, tb.fabric(), kTargetHost);

  apps::IperfClient client(tb.client(), tb.addresses().target);
  std::optional<double> measured;
  client.run(apps::IperfClient::Mode::kTcp, options.window,
             [&](apps::IperfResult r) { measured = r.completed ? r.mbps : 0.0; });
  point.run_for(options.window + options.grace);
  if (!measured) {
    client.cancel();
    point.run_for(sim::Duration::milliseconds(1));
  }
  point.run_for(options.gap);
  point.end_loop(tb.target_firewall(), 0, tb.target_policy_text());
  point.finish(JsonObject().num("mbps", measured.value_or(0.0)));
}

// bulk: fig2 fast-mode points at depths 1/16/32/64 and 1/2/4 VPGs. Seeds use
// fig2_bandwidth's slots: depth index * 4 + kind index over depths
// {1,2,4,8,16,32,48,64} and kinds {none, iptables, EFW, ADF}, then the VPG
// counts 1..4 from slot 32.
void run_bulk(Pass& pass, std::uint64_t base_seed) {
  struct Kind {
    const char* name;
    core::FirewallKind kind;
  };
  const Kind kinds[] = {{"none", core::FirewallKind::kNone},
                        {"iptables", core::FirewallKind::kIptables},
                        {"efw", core::FirewallKind::kEfw},
                        {"adf", core::FirewallKind::kAdf}};
  const std::pair<int, std::uint64_t> depths[] = {{1, 0}, {16, 4}, {32, 5}, {64, 7}};
  for (const auto& [depth, depth_index] : depths) {
    for (std::uint64_t k = 0; k < 4; ++k) {
      core::TestbedConfig config;
      config.firewall = kinds[k].kind;
      config.action_rule_depth = depth;
      bulk_point(pass, std::string(kinds[k].name) + "/d" + std::to_string(depth), config,
                 fast_options(core::derive_point_seed(base_seed, depth_index * 4 + k)));
    }
  }
  for (const std::uint64_t vpgs : {1, 2, 4}) {
    core::TestbedConfig config;
    config.firewall = core::FirewallKind::kAdfVpg;
    config.action_rule_depth = static_cast<int>(vpgs);
    bulk_point(pass, "adf-vpg/v" + std::to_string(vpgs), config,
               fast_options(core::derive_point_seed(base_seed, 31 + vpgs)));
  }
}

// fleet_goodput's per-host policy: the flood denied at depth 32.
std::string fleet_policy() {
  std::string policy = "default deny\n";
  for (int i = 1; i < 32; ++i) {
    policy += "deny tcp from 192.168." + std::to_string(i / 200) + "." +
              std::to_string(i % 200 + 1) + " to 192.168.250.1\n";
  }
  policy += "deny udp from any to any port 7777\n";
  policy += "allow any from any to any\n";
  return policy;
}

// fleet1024: the 1024-host point of fleet_goodput (full mode, batched links).
void run_fleet1024(Pass& pass, std::uint64_t base_seed) {
  constexpr int kHosts = 1024;
  constexpr int kAttackers = 2;
  constexpr double kPairRateBps = 4e6;
  constexpr double kFloodPps = 8000.0;
  const sim::Duration window = sim::Duration::seconds(1);
  const std::string policy = fleet_policy();
  // fleet_goodput's full-mode sizes are {64, 256, 512, 1024}: slot 3.
  const std::uint64_t seed = core::derive_point_seed(base_seed, 3);

  PointRun point(pass, "fleet1024");
  sim::Simulation sim(seed);
  core::LeafSpineSpec spec;
  spec.hosts = kHosts;
  spec.hosts_per_leaf = 16;
  spec.spines = 2;
  spec.batched_links = true;
  spec.nic_for = [](int index) {
    core::NicSpec nic;
    nic.kind = index < kAttackers ? core::FirewallKind::kNone : core::FirewallKind::kAdf;
    return nic;
  };
  auto fabric = core::build_leaf_spine(sim, spec);
  point.built();

  auto parsed = firewall::parse_policy(policy);
  if (!parsed.ok()) {
    std::fprintf(stderr, "fleet policy does not parse\n");
    std::exit(1);
  }
  for (int i = kAttackers; i < kHosts; ++i) {
    fabric->firewall(i)->install_rule_set(*parsed.rule_set);
  }
  const int pairs = (kHosts - kAttackers) / 2;
  const int first_client = kAttackers;
  const int first_server = kAttackers + pairs;
  std::vector<std::unique_ptr<apps::IperfServer>> servers;
  std::vector<std::unique_ptr<apps::IperfClient>> clients;
  std::vector<apps::IperfResult> results(static_cast<std::size_t>(pairs));
  for (int k = 0; k < pairs; ++k) {
    servers.push_back(std::make_unique<apps::IperfServer>(fabric->host(first_server + k)));
    servers.back()->start();
    clients.push_back(std::make_unique<apps::IperfClient>(
        fabric->host(first_client + k), fabric->host(first_server + k).ip()));
  }
  std::vector<std::unique_ptr<apps::FloodGenerator>> floods;
  for (int a = 0; a < kAttackers; ++a) {
    apps::FloodConfig cfg;
    cfg.target = fabric->host(first_server + a).ip();
    cfg.target_port = core::kFloodPort;
    cfg.rate_pps = kFloodPps;
    cfg.spoof_source = true;
    floods.push_back(std::make_unique<apps::FloodGenerator>(fabric->host(a), cfg));
  }
  sim.schedule(sim::Duration::milliseconds(5), [&] {
    for (auto& f : floods) f->start();
  });
  for (int k = 0; k < pairs; ++k) {
    const auto start =
        sim::Duration::milliseconds(10) + sim::Duration::microseconds(37) * k;
    sim.schedule(start, [&, k] {
      clients[static_cast<std::size_t>(k)]->run(
          apps::IperfClient::Mode::kUdp, window,
          [&, k](apps::IperfResult r) { results[static_cast<std::size_t>(k)] = r; },
          kPairRateBps);
    });
  }
  point.installed();
  point.settled(*fabric);
  point.begin_loop(sim, *fabric, first_server);

  point.run_until(sim::TimePoint::origin() + window + sim::Duration::seconds(2));

  std::uint64_t flood_frames = 0;
  for (const auto& f : floods) flood_frames += f->packets_sent();
  point.end_loop(fabric->firewall(first_server), flood_frames, policy);

  double aggregate = 0, victim = 0, clean = 0;
  std::uint64_t completed = 0;
  for (int k = 0; k < pairs; ++k) {
    const auto& r = results[static_cast<std::size_t>(k)];
    if (r.completed) ++completed;
    aggregate += r.mbps;
    (k < kAttackers ? victim : clean) += r.mbps;
  }
  point.finish(JsonObject()
                   .num("aggregate_mbps", aggregate)
                   .num("victim_mbps", victim / kAttackers)
                   .num("clean_mbps", clean / (pairs - kAttackers))
                   .count("pairs_completed", completed));
}

constexpr int kPushAgents = 256;

// The 5 000-rule corpus (policy_shape's generator seed), with the
// management-plane allow placed after the default line, as policy_shape
// does. Input generation: built once, outside every timed pass.
std::string push_policy_text() {
  firewall::policygen::PolicyCorpusGenerator gen(0xf1ee7);
  firewall::policygen::CorpusSpec spec;
  spec.rules = 5000;
  std::string text = gen.generate(spec).rules.to_string();
  const std::string mgmt_rule = "allow tcp from any to " + core::fleet_ip(0).to_string() +
                                " port " +
                                std::to_string(firewall::PolicyServer::kDefaultPort) + "\n";
  if (text.starts_with("default")) {
    const auto first_nl = text.find('\n');
    text.insert(first_nl == std::string::npos ? text.size() : first_nl + 1, mgmt_rule);
  } else {
    text.insert(0, mgmt_rule);
  }
  return text;
}

// push5k: policy_shape's distribution run (enroll on a trivial policy, then
// push the corpus at t = 4 s until every agent acks) on a 256-agent EFW fleet.
void run_push5k(Pass& pass, std::uint64_t base_seed, const std::string& text) {
  const int hosts = kPushAgents + 1;  // the server, then the agents
  PointRun point(pass, "push5k");
  sim::Simulation sim(core::derive_point_seed(base_seed, 0));
  core::LeafSpineSpec spec;
  spec.hosts = hosts;
  spec.hosts_per_leaf = 16;
  spec.spines = 2;
  spec.nic_for = [](int index) {
    core::NicSpec nic;
    nic.kind = index == 0 ? core::FirewallKind::kNone : core::FirewallKind::kEfw;
    return nic;
  };
  auto fabric = core::build_leaf_spine(sim, spec);
  point.built();

  firewall::PolicyServer server(fabric->host(0), kDeploymentKey);
  server.start();
  std::vector<net::Ipv4Address> agent_ips;
  std::vector<std::unique_ptr<firewall::PolicyAgent>> fleet;
  for (int i = 1; i < hosts; ++i) {
    agent_ips.push_back(fabric->host(i).ip());
    fleet.push_back(std::make_unique<firewall::PolicyAgent>(
        fabric->host(i), *fabric->firewall(i), fabric->host(0).ip(), kDeploymentKey));
    fleet.back()->start_after(sim::Duration::milliseconds(10) +
                              sim::Duration::microseconds(523) * (i - 1));
  }
  server.set_policy_all(agent_ips, "default deny\nallow any from any to any\n");

  const auto t_push = sim::Duration::seconds(4);
  double t50 = -1, t95 = -1, t100 = -1;
  sim.schedule(t_push, [&] { server.set_policy_all(agent_ips, text); });
  sim::EventHandle poll = sim.schedule_every(sim::Duration::milliseconds(1), [&] {
    const std::size_t acked = server.count_acked_at_least(2);
    const double t_ms = (sim.now() - (sim::TimePoint::origin() + t_push)).to_milliseconds();
    if (t50 < 0 && acked * 2 >= kPushAgents) t50 = t_ms;
    if (t95 < 0 && acked * 100 >= kPushAgents * 95) t95 = t_ms;
    if (t100 < 0 && acked >= kPushAgents) {
      t100 = t_ms;
      sim.stop();
    }
  });
  point.installed();
  point.settled(*fabric);
  point.begin_loop(sim, *fabric, hosts - 1);

  point.run_until(sim::TimePoint::origin() + sim::Duration::seconds(300));
  poll.cancel();
  point.end_loop(fabric->firewall(hosts - 1), 0, text);

  std::uint64_t installed = 0;
  for (int i = 1; i < hosts; ++i) installed += fabric->firewall(i)->rule_set().size();
  point.finish(JsonObject()
                   .num("t50_ms", t50)
                   .num("t95_ms", t95)
                   .num("t100_ms", t100)
                   .count("agents_connected", server.count_connected())
                   .count("rules_installed", installed));
}

// Times the install path on the largest policy a traced pass installed: the
// pushed message's HMAC, parse_policy and install_rule_set.
JsonObject replay_push_path(const PassTotals& p) {
  JsonObject out;
  if (p.policy_text.empty()) {
    return out.null("hmac_ms").null("policy_parse_ms").null("install_ms");
  }
  firewall::PolicyMessage msg;
  msg.type = firewall::PolicyMsgType::kPolicyUpdate;
  msg.seq = 1;
  msg.body = "version 2\n" + p.policy_text;
  const auto encoded = firewall::encode_policy_message(msg, kDeploymentKey);
  const std::span<const std::uint8_t> authed(encoded.data(),
                                             encoded.size() - firewall::kPolicyMacSize);
  out.num("hmac_ms", mean_ms([&] {
    g_sink = g_sink + crypto::hmac_sha256(kDeploymentKey, authed)[0];
  }));
  out.num("policy_parse_ms", mean_ms([&] {
    g_sink = g_sink + firewall::parse_policy(p.policy_text).ok();
  }));

  auto parsed = firewall::parse_policy(p.policy_text);
  sim::Simulation scratch(1);
  firewall::FirewallNic nic(scratch, core::fleet_mac(0), "replay", *p.policy_profile);
  constexpr int kInstalls = 16;
  std::vector<firewall::RuleSet> copies(kInstalls, *parsed.rule_set);
  const std::int64_t t0 = now_ns();
  for (auto& rules : copies) nic.install_rule_set(std::move(rules));
  out.num("install_ms", static_cast<double>(now_ns() - t0) * 1e-6 / kInstalls);
  return out;
}

// Runs one pass and renders its JSON line. Times are host seconds scaled to
// the reference speed; the raw_* fields are as measured.
std::string run_pass(const std::function<void(Pass&)>& workload, HostSpeed& speed,
                     bool traced) {
  Pass pass{speed, traced, {}};
  workload(pass);
  const PassTotals& p = pass.totals;
  PhaseTime setup = p.build;
  setup.add(p.install);
  setup.add(p.settle);
  PhaseTime wall = setup;
  wall.add(p.loop);
  wall.add(p.teardown);
  std::vector<double> calibration = p.calibration_ns;
  std::nth_element(calibration.begin(), calibration.begin() + calibration.size() / 2,
                   calibration.end());

  JsonObject line;
  line.str("kind", "pass")
      .flag("traced", traced)
      .num("wall_s", wall.scaled_s)
      .num("setup_s", setup.scaled_s)
      .num("loop_s", p.loop.scaled_s)
      .num("build_s", p.build.scaled_s)
      .num("install_s", p.install.scaled_s)
      .num("settle_s", p.settle.scaled_s)
      .num("raw_wall_s", wall.raw_s)
      .num("raw_loop_s", p.loop.raw_s)
      .num("calibration_ms", calibration[calibration.size() / 2] * 1e-6)
      .count("calibrations", calibration.size())
      .count("frames", p.frames)
      .count("events", p.events)
      .count("flood_frames", p.flood_frames)
      .count("pool_parses", p.pool_parses)
      .count("pool_allocs", p.pool_allocs)
      .count("rules_traversed", p.rules_traversed)
      .count("fw_frames", p.fw_frames)
      .num("rss_setup_kib", p.rss_setup_kib)
      .count("hosts", static_cast<std::uint64_t>(p.hosts))
      .num("audit_per_host_bytes", p.audit_per_host_bytes);
  if (traced) {
    JsonObject seams;
    for (int s = 0; s < kSeamCount; ++s) {
      seams.raw(kSeamNames[s], JsonObject()
                                   .count("count", p.seams[s].count)
                                   .num("incl_ns", static_cast<double>(p.seams[s].incl_ns))
                                   .num("self_ns", static_cast<double>(p.seams[s].self_ns))
                                   .done());
    }
    JsonObject replays = replay_push_path(p);
    if (p.seams[kNicRx].count == 0) {
      replays.num("standard_nic_rx_ns", replay_standard_nic(p.last_capture, p.capture_mac));
    }
    replays.num("parse_ns", p.replays.parse.per_unit())
        .num("match_ns", p.replays.match.per_unit())
        .num("checksum_ns_per_kib", p.replays.checksum.per_unit())
        .num("aead_ns_per_kib", p.replays.aead.per_unit());
    line.raw("seams", seams.done())
        .num("seam_top_ns", static_cast<double>(p.seam_top_ns))
        .num("harness_ns", static_cast<double>(p.harness_ns))
        .count("pending_max", p.pending_max)
        .raw("replay", replays.done());
  }
  std::string points = "[";
  for (const PointRecord& r : p.points) {
    if (points.size() > 1) points += ',';
    JsonObject point;
    point.str("id", r.id).raw("out", r.out.done());
    if (!r.trace.empty()) point.raw("trace", r.trace);
    points += point.done();
  }
  line.raw("points", points + "]");
  return line.done();
}

// --- self-test of the span accounting ---------------------------------------

// Busy-waits `ns`, then forwards: a stand-in for a layer's work.
class SpinSink final : public link::FrameSink {
 public:
  SpinSink(std::int64_t ns, link::FrameSink* next) : ns_(ns), next_(next) {}
  void deliver(net::Packet pkt) override {
    const std::int64_t t0 = now_ns();
    while (now_ns() - t0 < ns_) {
    }
    if (next_ != nullptr) next_->deliver(std::move(pkt));
  }

 private:
  std::int64_t ns_;
  link::FrameSink* next_;
};

// A synthetic chain of nested sinks (NIC seam -> work -> host seam -> work)
// beside a flat one (switch seam -> work): self = inclusive - children, the
// outermost spans sum to the seams' total, and each self time covers the
// work placed in that layer alone.
bool run_selftest() {
  constexpr int kFrames = 200;
  constexpr std::int64_t kNicNs = 10'000, kHostNs = 20'000, kSwitchNs = 5'000;
  sim::Simulation sim(1);
  Tracer tracer(sim);
  SpinSink host_work(kHostNs, nullptr);
  TimingSink host_seam(tracer, kHostRx, &host_work, false);
  SpinSink nic_work(kNicNs, &host_seam);
  TimingSink nic_seam(tracer, kNicRx, &nic_work, true);
  SpinSink switch_work(kSwitchNs, nullptr);
  TimingSink switch_seam(tracer, kSwitchRx, &switch_work, false);
  for (int i = 0; i < kFrames; ++i) {
    nic_seam.deliver(net::Packet(std::vector<std::uint8_t>(60, 0), sim::TimePoint::origin(),
                                 static_cast<std::uint64_t>(i)));
    switch_seam.deliver(net::Packet(std::vector<std::uint8_t>(60, 0),
                                    sim::TimePoint::origin(), static_cast<std::uint64_t>(i)));
  }
  const SpanBook& b = tracer.book;
  const SeamTotals& nic = b.totals(kNicRx);
  const SeamTotals& host = b.totals(kHostRx);
  const SeamTotals& sw = b.totals(kSwitchRx);
  struct Check {
    const char* what;
    bool ok;
  };
  const Check checks[] = {
      {"nic self = inclusive - host", nic.self_ns == nic.incl_ns - host.incl_ns},
      {"host self = inclusive", host.self_ns == host.incl_ns},
      {"switch self = inclusive", sw.self_ns == sw.incl_ns},
      {"outermost spans = nic + switch", b.top_ns() == nic.incl_ns + sw.incl_ns},
      {"nic self covers its work", nic.self_ns >= kFrames * kNicNs},
      {"nic self excludes host work", nic.self_ns < kFrames * (kNicNs + kHostNs)},
      {"host self covers its work", host.self_ns >= kFrames * kHostNs},
      {"switch self covers its work", sw.self_ns >= kFrames * kSwitchNs},
      {"every span counted", nic.count == kFrames && host.count == kFrames &&
                                 sw.count == kFrames},
      {"capture stride and cap",
       tracer.frames.size() == (kFrames + kCaptureStride - 1) / kCaptureStride},
  };
  bool ok = true;
  for (const Check& c : checks) {
    if (!c.ok) std::fprintf(stderr, "selftest: FAILED %s\n", c.what);
    ok = ok && c.ok;
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    if (arg == "--selftest") {
      const bool ok = run_selftest();
      std::printf("%s\n", JsonObject().str("kind", "selftest").flag("ok", ok).done().c_str());
      return ok ? 0 : 1;
    }
    if (i + 1 >= argc) break;
    const char* value = argv[++i];
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      seconds = std::strtod(value, nullptr);
    } else if (arg == "--trace") {
      trace = std::string_view(value) == "1";
    }
  }
  Logger::instance().set_level(LogLevel::kError);  // expected lockup warnings

  std::function<void(Pass&)> run;
  std::string push_text;
  if (workload == "minflood") {
    run = [seed](Pass& p) { run_minflood(p, seed); };
  } else if (workload == "bulk") {
    run = [seed](Pass& p) { run_bulk(p, seed); };
  } else if (workload == "fleet1024") {
    run = [seed](Pass& p) { run_fleet1024(p, seed); };
  } else if (workload == "push5k") {
    push_text = push_policy_text();
    run = [seed, &push_text](Pass& p) { run_push5k(p, seed, push_text); };
  } else {
    std::fprintf(stderr, "unknown workload '%s' (minflood, bulk, fleet1024, push5k)\n",
                 workload.c_str());
    return 2;
  }

  // Whole passes until the budget is spent: at least one, and with --trace 1
  // an untraced/traced pair, alternating after that.
  HostSpeed speed;
  const std::int64_t t0 = now_ns();
  double longest = 0;
  for (int i = 0;; ++i) {
    const std::int64_t p0 = now_ns();
    std::printf("%s\n", run_pass(run, speed, trace && i % 2 == 1).c_str());
    std::fflush(stdout);
    const double took = seconds_between(p0, now_ns());
    longest = std::max(longest, took);
    if (trace && i == 0) continue;
    if (seconds_between(t0, now_ns()) + longest > seconds) break;
  }
  std::printf("%s\n", JsonObject()
                          .str("kind", "end")
                          // The calibration table is resident throughout.
                          .num("peak_rss_mib",
                               (rss_kib("VmHWM") - static_cast<double>(kCalibrationTableWords *
                                                                       sizeof(std::uint64_t)) /
                                                       1024.0) /
                                   1024.0)
                          .done()
                          .c_str());
  return 0;
}
