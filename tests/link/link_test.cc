#include "link/link.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "sim/simulation.h"

namespace barb::link {
namespace {

struct CollectorSink : FrameSink {
  std::vector<net::Packet> received;
  std::vector<sim::TimePoint> arrival_times;
  sim::Simulation* sim = nullptr;

  void deliver(net::Packet pkt) override {
    received.push_back(std::move(pkt));
    if (sim) arrival_times.push_back(sim->now());
  }
};

net::Packet make_frame(std::size_t size, std::uint64_t id = 0) {
  return net::Packet{std::vector<std::uint8_t>(size, 0xab), sim::TimePoint::origin(), id};
}

TEST(Link, DeliversFrameAfterSerializationAndPropagation) {
  sim::Simulation sim;
  Link link(sim);  // 100 Mbps, 500 ns propagation
  CollectorSink sink;
  sink.sim = &sim;
  link.b().connect_sink(&sink);

  link.a().send(make_frame(1514));
  sim.run();

  ASSERT_EQ(sink.received.size(), 1u);
  // (1514 + 24 overhead) * 8 bits / 100 Mbps = 123.04 us, + 0.5 us propagation.
  EXPECT_EQ(sink.arrival_times[0].ns(), 123040 + 500);
}

TEST(Link, MinimumFrameTiming) {
  sim::Simulation sim;
  Link link(sim);
  // 64-byte frames (60 without FCS): (60+24)*8/100e6 = 6.72 us on the wire.
  EXPECT_EQ(link.a().frame_time(60).ns(), 6720);
  // Runt frames are padded to the minimum by the wire model.
  EXPECT_EQ(link.a().frame_time(20).ns(), 6720);
}

TEST(Link, MaxFrameRateMatchesEthernet) {
  // 100 Mbps line rate: 8127 maximum-size frames/s, 148809 minimum-size.
  sim::Simulation sim;
  Link link(sim);
  const double fps_max = 1.0 / link.a().frame_time(1514).to_seconds();
  const double fps_min = 1.0 / link.a().frame_time(60).to_seconds();
  EXPECT_NEAR(fps_max, 8127.4, 1.0);
  EXPECT_NEAR(fps_min, 148810.0, 30.0);
}

TEST(Link, BackToBackFramesSerializeSequentially) {
  sim::Simulation sim;
  Link link(sim);
  CollectorSink sink;
  sink.sim = &sim;
  link.b().connect_sink(&sink);

  for (int i = 0; i < 3; ++i) link.a().send(make_frame(1514, static_cast<std::uint64_t>(i)));
  sim.run();

  ASSERT_EQ(sink.received.size(), 3u);
  // Arrivals spaced exactly one frame time apart.
  EXPECT_EQ(sink.arrival_times[1] - sink.arrival_times[0],
            sim::Duration::nanoseconds(123040));
  EXPECT_EQ(sink.arrival_times[2] - sink.arrival_times[1],
            sim::Duration::nanoseconds(123040));
  // FIFO order preserved.
  EXPECT_EQ(sink.received[0].id, 0u);
  EXPECT_EQ(sink.received[2].id, 2u);
}

TEST(Link, QueueOverflowDropsTail) {
  sim::Simulation sim;
  LinkConfig cfg;
  cfg.queue_bytes = 5 * 1514;
  Link link(sim, cfg);
  CollectorSink sink;
  link.b().connect_sink(&sink);

  // 1 transmitting + 5 queued fit; the rest drop.
  for (int i = 0; i < 10; ++i) link.a().send(make_frame(1514));
  EXPECT_EQ(link.a().stats().dropped_frames, 4u);
  sim.run();
  EXPECT_EQ(sink.received.size(), 6u);
  EXPECT_EQ(link.a().stats().tx_frames, 6u);

  // Byte accounting: after a full drain, ~126 minimum-size frames fit in the
  // same budget that held five full-size frames.
  int accepted = 0;
  for (int i = 0; i < 400; ++i) {
    const auto before = link.a().stats().dropped_frames;
    link.a().send(make_frame(60));
    if (link.a().stats().dropped_frames == before) ++accepted;
  }
  EXPECT_GT(accepted, 100);
  sim.run();
}

TEST(Link, DirectionsAreIndependent) {
  sim::Simulation sim;
  Link link(sim);
  CollectorSink sink_a, sink_b;
  sink_a.sim = sink_b.sim = &sim;
  link.a().connect_sink(&sink_a);
  link.b().connect_sink(&sink_b);

  link.a().send(make_frame(1514));
  link.b().send(make_frame(1514));
  sim.run();

  // Full duplex: both frames arrive at the same (single-frame) time.
  ASSERT_EQ(sink_a.received.size(), 1u);
  ASSERT_EQ(sink_b.received.size(), 1u);
  EXPECT_EQ(sink_a.arrival_times[0], sink_b.arrival_times[0]);
}

TEST(Link, StatsCountBytes) {
  sim::Simulation sim;
  Link link(sim);
  CollectorSink sink;
  link.b().connect_sink(&sink);
  link.a().send(make_frame(100));
  link.a().send(make_frame(200));
  sim.run();
  EXPECT_EQ(link.a().stats().tx_bytes, 300u);
  EXPECT_EQ(link.b().stats().rx_bytes, 300u);
  EXPECT_EQ(link.b().stats().rx_frames, 2u);
}

TEST(Link, SustainedThroughputAtLineRate) {
  // Saturate one direction for 10 ms and verify delivered bandwidth.
  sim::Simulation sim;
  LinkConfig cfg;
  cfg.queue_bytes = 10000 * 1514;
  Link link(sim, cfg);
  CollectorSink sink;
  link.b().connect_sink(&sink);

  const int n = 100;
  for (int i = 0; i < n; ++i) link.a().send(make_frame(1514));
  sim.run();
  const double elapsed = sim.now().to_seconds();
  const double payload_bps = n * 1514 * 8.0 / elapsed;
  // 1514/1538 of the raw 100 Mbps.
  EXPECT_NEAR(payload_bps, 100e6 * 1514.0 / 1538.0, 1e5);
}

// --- Timeline against a reference serializer ------------------------------

struct Send {
  sim::Duration at;
  std::size_t bytes;
};

// Bursty traffic that overflows an 8 KiB queue: 20 near-full-size frames at
// t=0, a trickle of minimum-size frames, then a second burst after a quiet
// gap.
constexpr std::size_t kSmallQueueBytes = 8 * 1024;

std::vector<Send> bursty_sends() {
  std::vector<Send> sends;
  for (int i = 0; i < 20; ++i) sends.push_back({sim::Duration(), 1442});
  for (int i = 0; i < 10; ++i) {
    sends.push_back({sim::Duration::microseconds(200) * (i + 1), 60});
  }
  for (int i = 0; i < 8; ++i) sends.push_back({sim::Duration::milliseconds(5), 742});
  return sends;
}

// Gauge sampling instants that straddle serializations.
std::vector<sim::Duration> sample_times() {
  std::vector<sim::Duration> times;
  for (int i = 0; i < 40; ++i) times.push_back(sim::Duration::microseconds(150) * i);
  return times;
}

using Delivery = std::pair<sim::TimePoint, std::size_t>;

struct Timeline {
  std::vector<Delivery> deliveries;
  std::uint64_t tx_frames = 0;
  std::uint64_t tx_bytes = 0;
  std::uint64_t dropped = 0;
  sim::Duration busy_time;
  std::vector<std::size_t> sampled_depths;
  std::vector<std::size_t> sampled_bytes;
};

// An independent model of a drop-tail FIFO in front of a 100 Mbps wire with
// 500 ns of propagation. A frame starts serializing at max(send time,
// previous end); it is dropped when the bytes waiting behind the wire plus
// its own size exceed the queue; it is delivered at serialization end plus
// propagation. Sends at one instant precede samples at that instant.
Timeline reference_timeline(const std::vector<Send>& sends,
                            const std::vector<sim::Duration>& samples,
                            std::size_t queue_bytes) {
  // Preamble + SFD + FCS + inter-frame gap; runts are padded to 60 bytes;
  // 80 ns per byte at 100 Mbps.
  auto wire_time = [](std::size_t bytes) {
    return sim::Duration::nanoseconds(
        static_cast<std::int64_t>((std::max<std::size_t>(bytes, 60) + 24) * 80));
  };
  struct Accepted {
    sim::TimePoint sent, start, end;
    std::size_t bytes;
  };
  std::vector<Accepted> accepted;
  Timeline out;
  sim::TimePoint wire_free;
  for (const Send& s : sends) {
    const sim::TimePoint now = sim::TimePoint::origin() + s.at;
    std::size_t waiting = 0;
    for (const Accepted& a : accepted) {
      if (a.start > now) waiting += a.bytes;
    }
    if (wire_free > now && waiting + s.bytes > queue_bytes) {
      ++out.dropped;
      continue;
    }
    const sim::TimePoint start = std::max(now, wire_free);
    wire_free = start + wire_time(s.bytes);
    accepted.push_back({now, start, wire_free, s.bytes});
    out.deliveries.emplace_back(wire_free + sim::Duration::nanoseconds(500), s.bytes);
    ++out.tx_frames;
    out.tx_bytes += s.bytes;
    out.busy_time += wire_time(s.bytes);
  }
  for (const sim::Duration& at : samples) {
    const sim::TimePoint now = sim::TimePoint::origin() + at;
    std::size_t depth = 0, bytes = 0;
    for (const Accepted& a : accepted) {
      if (a.sent > now) continue;
      if (a.start > now) {
        ++depth;
        bytes += a.bytes;
      } else if (a.end > now) {
        ++depth;  // on the wire
      }
    }
    out.sampled_depths.push_back(depth);
    out.sampled_bytes.push_back(bytes);
  }
  return out;
}

struct DrivenLink {
  Timeline timeline;
  std::uint64_t rx_frames = 0;
  std::uint64_t rx_bytes = 0;
  std::uint64_t events = 0;
  std::uint64_t scheduled_by_test = 0;
};

// Runs the sends and gauge samples through a real Link, one scheduled event
// per send and per sample.
DrivenLink drive(const std::vector<Send>& sends,
                 const std::vector<sim::Duration>& samples) {
  sim::Simulation sim(1);
  LinkConfig config;
  config.queue_bytes = kSmallQueueBytes;
  Link link(sim, config);
  struct TimestampSink : FrameSink {
    sim::Simulation* sim = nullptr;
    std::vector<Delivery> deliveries;
    void deliver(net::Packet pkt) override {
      deliveries.emplace_back(sim->now(), pkt.size());
    }
  } sink;
  sink.sim = &sim;
  link.b().connect_sink(&sink);

  DrivenLink run;
  for (const Send& s : sends) {
    sim.schedule(s.at, [&link, bytes = s.bytes] { link.a().send(make_frame(bytes)); });
  }
  for (const sim::Duration& at : samples) {
    sim.schedule(at, [&] {
      run.timeline.sampled_depths.push_back(link.a().queue_depth());
      run.timeline.sampled_bytes.push_back(link.a().queued_bytes());
    });
  }
  run.scheduled_by_test = sends.size() + samples.size();
  sim.run();

  const LinkPortStats& tx = link.a().stats();
  run.timeline.deliveries = sink.deliveries;
  run.timeline.tx_frames = tx.tx_frames;
  run.timeline.tx_bytes = tx.tx_bytes;
  run.timeline.dropped = tx.dropped_frames;
  run.timeline.busy_time = tx.busy_time;
  run.rx_frames = link.b().stats().rx_frames;
  run.rx_bytes = link.b().stats().rx_bytes;
  run.events = sim.events_executed();
  return run;
}

TEST(Link, TimelineMatchesSerializationModel) {
  const auto sends = bursty_sends();
  const auto samples = sample_times();
  const Timeline want = reference_timeline(sends, samples, kSmallQueueBytes);
  const DrivenLink got = drive(sends, samples);

  ASSERT_EQ(got.timeline.deliveries.size(), want.deliveries.size());
  for (std::size_t i = 0; i < want.deliveries.size(); ++i) {
    EXPECT_EQ(got.timeline.deliveries[i], want.deliveries[i]) << "delivery " << i;
  }
  EXPECT_GT(want.dropped, 0u);  // the bursts did overflow
  EXPECT_EQ(got.timeline.dropped, want.dropped);
  EXPECT_EQ(got.timeline.tx_frames, want.tx_frames);
  EXPECT_EQ(got.timeline.tx_bytes, want.tx_bytes);
  EXPECT_EQ(got.timeline.busy_time, want.busy_time);
  EXPECT_EQ(got.rx_frames, want.tx_frames);
  EXPECT_EQ(got.rx_bytes, want.tx_bytes);
  EXPECT_EQ(got.timeline.sampled_depths, want.sampled_depths);
  EXPECT_EQ(got.timeline.sampled_bytes, want.sampled_bytes);
}

// A port's one armed timer fires once per delivered frame, and freeing the
// transmitter costs no event: the only events beyond the test's own are
// deliveries.
TEST(Link, OneEventPerDeliveredFrame) {
  const DrivenLink got = drive(bursty_sends(), sample_times());
  EXPECT_EQ(got.events, got.scheduled_by_test + got.rx_frames);
}

}  // namespace
}  // namespace barb::link
