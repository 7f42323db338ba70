#include "link/fault_injector.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <tuple>
#include <vector>

#include "link/link.h"
#include "net/packet_builder.h"
#include "sim/simulation.h"
#include "stack/host.h"
#include "stack/udp.h"
#include "testutil/fixtures.h"

namespace barb {
namespace {

// Sends `count` UDP datagrams a -> b with an injector on a's port and
// returns the receive order (each datagram carries its index).
struct LossyRun {
  std::vector<int> received_order;
  link::FaultInjectorStats stats;
  link::LinkPortStats tx_stats;
  link::LinkPortStats rx_stats;
};

LossyRun run_datagrams(const link::FaultProfile& profile, std::uint64_t seed,
                       int count) {
  sim::Simulation sim(1);
  testutil::TwoHosts net(sim);
  link::FaultInjector injector(profile, seed);
  net.link.a().set_fault_injector(&injector);

  LossyRun out;
  auto* rx = net.b->udp_open(9000);
  rx->set_receiver([&](net::Ipv4Address, std::uint16_t,
                       std::span<const std::uint8_t> payload) {
    if (!payload.empty()) out.received_order.push_back(payload[0]);
  });

  auto* tx = net.a->udp_open(9001);
  for (int i = 0; i < count; ++i) {
    const int idx = i;
    sim.schedule(sim::Duration::microseconds(100 * i), [tx, idx, &net] {
      const std::uint8_t payload[] = {static_cast<std::uint8_t>(idx)};
      tx->send_to(net.b->ip(), 9000, payload);
    });
  }
  sim.run();

  out.stats = injector.stats();
  out.tx_stats = net.link.a().stats();
  out.rx_stats = net.link.b().stats();
  return out;
}

TEST(FaultInjector, DisabledProfileChangesNothing) {
  link::FaultProfile clean;
  EXPECT_FALSE(clean.enabled());
  const auto run = run_datagrams(clean, 7, 50);
  EXPECT_EQ(run.received_order.size(), 50u);
  EXPECT_EQ(run.stats.frames, 50u);
  EXPECT_EQ(run.stats.lost(), 0u);
  EXPECT_EQ(run.stats.duplicated, 0u);
  // In order, nothing touched.
  for (int i = 0; i < 50; ++i) EXPECT_EQ(run.received_order[i], i);
}

TEST(FaultInjector, SameSeedSameFate) {
  link::FaultProfile p;
  p.loss = 0.2;
  p.duplication = 0.1;
  p.reorder = 0.15;
  p.jitter_max = sim::Duration::microseconds(50);

  const auto run1 = run_datagrams(p, 1234, 200);
  const auto run2 = run_datagrams(p, 1234, 200);
  EXPECT_EQ(run1.received_order, run2.received_order);
  EXPECT_EQ(run1.stats.lost(), run2.stats.lost());
  EXPECT_EQ(run1.stats.duplicated, run2.stats.duplicated);
  EXPECT_EQ(run1.stats.reordered, run2.stats.reordered);
  EXPECT_EQ(run1.stats.jittered, run2.stats.jittered);

  const auto run3 = run_datagrams(p, 4321, 200);
  EXPECT_NE(run1.received_order, run3.received_order);
}

TEST(FaultInjector, LossIsCountedAndConserved) {
  link::FaultProfile p;
  p.loss = 0.3;
  const auto run = run_datagrams(p, 99, 500);
  EXPECT_GT(run.stats.lost_random, 0u);
  EXPECT_EQ(run.stats.lost_burst, 0u);
  // Conservation: every transmitted frame was delivered or counted lost.
  EXPECT_EQ(run.rx_stats.rx_frames,
            run.tx_stats.tx_frames - run.stats.lost() + run.stats.duplicated);
  // ~30% loss with generous slack (binomial over ~500 UDP frames).
  const double rate = static_cast<double>(run.stats.lost()) /
                      static_cast<double>(run.stats.frames);
  EXPECT_GT(rate, 0.15);
  EXPECT_LT(rate, 0.45);
}

TEST(FaultInjector, DuplicationDeliversExtraFrames) {
  link::FaultProfile p;
  p.duplication = 0.25;
  const auto run = run_datagrams(p, 5, 400);
  EXPECT_GT(run.stats.duplicated, 0u);
  EXPECT_EQ(run.stats.lost(), 0u);
  EXPECT_EQ(run.rx_stats.rx_frames, run.tx_stats.tx_frames + run.stats.duplicated);
  EXPECT_EQ(run.received_order.size(),
            static_cast<std::size_t>(400 + run.stats.duplicated));
}

TEST(FaultInjector, ReorderingShufflesDeliveries) {
  link::FaultProfile p;
  p.reorder = 0.3;
  p.reorder_window = 4;
  p.reorder_hold = sim::Duration::milliseconds(1);
  const auto run = run_datagrams(p, 42, 200);
  EXPECT_GT(run.stats.reordered, 0u);
  EXPECT_EQ(run.received_order.size(), 200u);  // nothing lost, nothing duplicated
  bool out_of_order = false;
  for (std::size_t i = 1; i < run.received_order.size(); ++i) {
    if (run.received_order[i] < run.received_order[i - 1]) out_of_order = true;
  }
  EXPECT_TRUE(out_of_order);
}

TEST(FaultInjector, GilbertElliottLosesInBursts) {
  link::FaultProfile p;
  p.ge_p_good_to_bad = 0.05;
  p.ge_p_bad_to_good = 0.3;
  p.ge_loss_good = 0.0;
  p.ge_loss_bad = 1.0;
  EXPECT_TRUE(p.enabled());

  const auto run = run_datagrams(p, 2024, 1000);
  EXPECT_GT(run.stats.lost_burst, 0u);
  EXPECT_EQ(run.stats.lost_random, 0u);
  EXPECT_EQ(run.rx_stats.rx_frames, run.tx_stats.tx_frames - run.stats.lost());

  // Burstiness: with loss only in the bad state, consecutive losses must
  // appear (expected burst length 1/p_bad_to_good > 3 frames). Reconstruct
  // gaps from the received indices.
  int max_gap = 0;
  int prev = -1;
  for (int got : run.received_order) {
    max_gap = std::max(max_gap, got - prev - 1);
    prev = got;
  }
  EXPECT_GE(max_gap, 2);
}

TEST(FaultInjector, CorruptionFlipsBitsButConservesFrames) {
  link::FaultProfile p;
  p.corruption = 0.3;
  const auto run = run_datagrams(p, 77, 300);
  EXPECT_GT(run.stats.corrupted, 0u);
  // Corruption never removes frames from the wire.
  EXPECT_EQ(run.rx_stats.rx_frames, run.tx_stats.tx_frames);
  // Corrupt frames fail checksum (or parse) somewhere in the stack, so the
  // app sees fewer datagrams than were sent but the wire saw all of them.
  EXPECT_LT(run.received_order.size(), 300u);
}

TEST(FaultInjector, MetricsExposeFaultCounters) {
  sim::Simulation sim(1);
  testutil::TwoHosts net(sim);
  link::FaultProfile p;
  p.loss = 0.5;
  link::FaultInjector injector(p, 11);
  net.link.a().set_fault_injector(&injector);

  telemetry::MetricRegistry registry;
  injector.register_metrics(registry, "link=test,side=a");

  auto* tx = net.a->udp_open(9001);
  for (int i = 0; i < 100; ++i) {
    sim.schedule(sim::Duration::microseconds(50 * i), [tx, &net] {
      const std::uint8_t payload[] = {0xab};
      tx->send_to(net.b->ip(), 9000, payload);
    });
  }
  sim.run();

  EXPECT_GT(injector.stats().lost_random, 0u);
  EXPECT_NE(registry.find("fault.lost_random", "link=test,side=a"), nullptr);
  EXPECT_EQ(registry.value("fault.lost_random", "link=test,side=a"),
            static_cast<double>(injector.stats().lost_random));
  EXPECT_EQ(registry.value("fault.frames", "link=test,side=a"),
            static_cast<double>(injector.stats().frames));
}

// --- Fates and timing of frames that waited in the queue ------------------

std::uint64_t fnv1a(std::uint64_t h, std::span<const std::uint8_t> bytes) {
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  std::uint8_t bytes[8];
  for (int i = 0; i < 8; ++i) bytes[i] = static_cast<std::uint8_t>(v >> (8 * i));
  return fnv1a(h, bytes);
}

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

struct QueuedRun {
  link::FaultInjectorStats stats;
  link::LinkPortStats tx;
  int backlogged_bursts = 0;  // bursts sent while frames were still queued
  // Hash of the sorted (arrival ns, frame id, content hash) list.
  std::uint64_t arrivals_hash = 0;
};

// 40 bursts of 12 mixed-size frames (60..1459 B), one burst every 700 us,
// into a 64 KiB queue. A burst takes ~750 us to serialize, so the wire falls
// behind and most frames wait in the queue before the injector decides
// their fate.
QueuedRun run_queued_bursts(const link::FaultProfile& profile, std::uint64_t seed) {
  sim::Simulation sim(1);
  link::LinkConfig config;
  config.queue_bytes = 64 * 1024;
  link::Link wire(sim, config);
  link::FaultInjector injector(profile, seed);
  wire.a().set_fault_injector(&injector);

  struct ArrivalSink : link::FrameSink {
    sim::Simulation* sim = nullptr;
    std::vector<std::tuple<std::int64_t, std::uint64_t, std::uint64_t>> arrivals;
    void deliver(net::Packet pkt) override {
      arrivals.emplace_back(sim->now().ns(), pkt.id, fnv1a(kFnvBasis, pkt.bytes()));
    }
  } sink;
  sink.sim = &sim;
  wire.b().connect_sink(&sink);

  QueuedRun out;
  for (int burst = 0; burst < 40; ++burst) {
    sim.schedule(sim::Duration::microseconds(700) * burst, [&, burst] {
      if (wire.a().queue_depth() > 1) ++out.backlogged_bursts;
      for (int i = 0; i < 12; ++i) {
        const auto id = static_cast<std::uint64_t>(burst * 12 + i);
        std::vector<std::uint8_t> bytes(60 + (id * 7919) % 1400);
        for (std::size_t k = 0; k < bytes.size(); ++k) {
          bytes[k] = static_cast<std::uint8_t>(id * 31 + k);
        }
        wire.a().send(net::Packet{std::move(bytes), sim.now(), id});
      }
    });
  }
  sim.run();

  std::sort(sink.arrivals.begin(), sink.arrivals.end());
  std::uint64_t h = kFnvBasis;
  for (const auto& [at, id, content] : sink.arrivals) {
    h = fnv1a(fnv1a(fnv1a(h, static_cast<std::uint64_t>(at)), id), content);
  }
  out.stats = injector.stats();
  out.tx = wire.a().stats();
  out.arrivals_hash = h;
  return out;
}

TEST(FaultInjector, QueuedBurstsKeepFatesAndTimes) {
  struct Case {
    const char* name;
    link::FaultProfile profile;
    std::uint64_t seed;
    // Pinned outcome.
    std::uint64_t lost_random, lost_burst, corrupted, duplicated, reordered,
        jittered;
    std::uint64_t tx_frames, tx_bytes, dropped;
    std::int64_t busy_ns;
    std::uint64_t arrivals_hash;
  };
  link::FaultProfile all;
  all.loss = 0.05;
  all.duplication = 0.05;
  all.corruption = 0.05;
  all.reorder = 0.1;
  all.reorder_window = 4;
  all.reorder_hold = sim::Duration::microseconds(300);
  all.jitter_max = sim::Duration::microseconds(80);
  all.ge_p_good_to_bad = 0.02;
  all.ge_p_bad_to_good = 0.3;
  all.ge_loss_bad = 0.8;
  link::FaultProfile burst;
  burst.ge_p_good_to_bad = 0.05;
  burst.ge_p_bad_to_good = 0.3;
  burst.ge_loss_good = 0.01;
  burst.ge_loss_bad = 0.8;
  link::FaultProfile reorder;
  reorder.reorder = 0.2;
  reorder.reorder_window = 4;
  reorder.reorder_hold = sim::Duration::microseconds(300);
  link::FaultProfile dup;
  dup.duplication = 0.15;
  link::FaultProfile jitter;
  jitter.jitter_max = sim::Duration::microseconds(80);

  // Recorded with the per-frame link engine, which called the injector at
  // serialization start; the FIFO engine calls it at delivery time.
  const Case cases[] = {
      {"everything", all, 101, 23, 34, 22, 19, 50, 423, 480, 364840, 0,
       30108800, 0x4f02f92973a8a5d2ULL},
      {"gilbert_elliott", burst, 102, 0, 37, 0, 0, 0, 0, 480, 364840, 0,
       30108800, 0x3803d033f9f7155fULL},
      {"reorder", reorder, 103, 0, 0, 0, 0, 72, 0, 480, 364840, 0, 30108800,
       0x4a6437044f43785dULL},
      {"duplication", dup, 104, 0, 0, 0, 68, 0, 0, 480, 364840, 0, 30108800,
       0x13e347d1665ddc1aULL},
      {"jitter", jitter, 105, 0, 0, 0, 0, 0, 480, 480, 364840, 0, 30108800,
       0x682531062705340bULL},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const QueuedRun run = run_queued_bursts(c.profile, c.seed);
    EXPECT_GE(run.backlogged_bursts, 30);
    EXPECT_EQ(run.stats.frames, run.tx.tx_frames);
    EXPECT_EQ(run.stats.lost_random, c.lost_random);
    EXPECT_EQ(run.stats.lost_burst, c.lost_burst);
    EXPECT_EQ(run.stats.corrupted, c.corrupted);
    EXPECT_EQ(run.stats.duplicated, c.duplicated);
    EXPECT_EQ(run.stats.reordered, c.reordered);
    EXPECT_EQ(run.stats.jittered, c.jittered);
    EXPECT_EQ(run.tx.tx_frames, c.tx_frames);
    EXPECT_EQ(run.tx.tx_bytes, c.tx_bytes);
    EXPECT_EQ(run.tx.dropped_frames, c.dropped);
    EXPECT_EQ(run.tx.busy_time.ns(), c.busy_ns);
    EXPECT_EQ(run.arrivals_hash, c.arrivals_hash);
  }
}

}  // namespace
}  // namespace barb
