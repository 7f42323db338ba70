// The learning switch's bounded open-addressing FIB (capacity bound under
// spoofed floods, eviction accounting, aging), and the routed switch, which
// holds no FIB at all.
#include "link/switch.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "net/frame_buffer.h"
#include "net/packet_builder.h"
#include "sim/simulation.h"

namespace barb::link {
namespace {

struct CollectorSink : FrameSink {
  std::vector<net::Packet> received;
  void deliver(net::Packet pkt) override { received.push_back(std::move(pkt)); }
};

net::Packet frame_between(std::uint32_t src_id, std::uint32_t dst_id,
                          bool broadcast = false) {
  net::IpEndpoints ep;
  ep.src_ip = net::Ipv4Address(10, 0, static_cast<std::uint8_t>(src_id >> 8),
                               static_cast<std::uint8_t>(src_id));
  ep.dst_ip = net::Ipv4Address(10, 0, static_cast<std::uint8_t>(dst_id >> 8),
                               static_cast<std::uint8_t>(dst_id));
  ep.src_mac = net::MacAddress::from_host_id(src_id);
  ep.dst_mac = broadcast ? net::MacAddress::broadcast()
                         : net::MacAddress::from_host_id(dst_id);
  const std::uint8_t payload[] = {1, 2, 3};
  return net::Packet{net::build_udp_frame(ep, 1000, 2000, payload),
                     sim::TimePoint::origin(), 0};
}

struct FibFixture {
  sim::Simulation sim;
  std::unique_ptr<Switch> sw;
  std::vector<std::unique_ptr<Link>> links;
  std::vector<CollectorSink> sinks{2};

  explicit FibFixture(SwitchConfig config, Switch::Route route = {}) {
    sw = std::make_unique<Switch>(sim, "sw", config, std::move(route));
    for (int i = 0; i < 2; ++i) {
      links.push_back(std::make_unique<Link>(sim));
      links.back()->a().connect_sink(&sinks[static_cast<std::size_t>(i)]);
      sw->attach(links.back()->b());
    }
  }

  void inject(int port, net::Packet pkt) {
    links[static_cast<std::size_t>(port)]->a().send(std::move(pkt));
  }
};

TEST(SwitchFib, TableStaysBoundedUnderSpoofedSources) {
  SwitchConfig config;
  config.fib_capacity = 64;
  FibFixture f(config);

  // A spoofed-source flood: 4096 distinct MACs through a 64-slot table.
  for (std::uint32_t src = 1; src <= 4096; ++src) {
    f.inject(0, frame_between(src, 60000));
    f.sim.run();
  }
  EXPECT_LE(f.sw->fib_size(), 64u);
  EXPECT_GT(f.sw->stats().fib_evictions, 0u);
  // Footprint is the slot array, independent of how many MACs were spoofed.
  EXPECT_LE(f.sw->fib_memory_bytes(), 64u * 64u);
}

TEST(SwitchFib, EvictionReplacesStalestInProbeWindow) {
  SwitchConfig config;
  config.fib_capacity = 16;  // tiny: every slot contested quickly
  FibFixture f(config);

  for (std::uint32_t src = 1; src <= 200; ++src) {
    f.inject(0, frame_between(src, 60000));
    f.sim.run();
  }
  const std::uint64_t evictions = f.sw->stats().fib_evictions;
  EXPECT_GT(evictions, 0u);
  // The most recent source must still be resident (evictions take the
  // stalest entry, never the one just learned).
  EXPECT_EQ(f.sw->lookup(net::MacAddress::from_host_id(200)), 0);
}

TEST(SwitchFib, LearnedEntriesAgeOut) {
  SwitchConfig config;
  config.mac_table_aging = sim::Duration::seconds(1);
  FibFixture f(config);

  f.inject(0, frame_between(42, 60000));
  f.sim.run();
  EXPECT_EQ(f.sw->lookup(net::MacAddress::from_host_id(42)), 0);

  f.sim.run_until(f.sim.now() + sim::Duration::seconds(2));
  EXPECT_EQ(f.sw->lookup(net::MacAddress::from_host_id(42)), -1);
}

// A routed switch forwards where its route says and nowhere else: it never
// learns, never floods and holds no FIB, whatever sources it sees.
TEST(SwitchFib, RoutedSwitchForwardsOnlyWhereRouteSays) {
  FibFixture f(SwitchConfig{}, [](const net::MacAddress& dst) {
    return dst == net::MacAddress::from_host_id(2) ? 1 : -1;
  });
  EXPECT_EQ(f.sw->fib_size(), 0u);
  EXPECT_EQ(f.sw->fib_memory_bytes(), 0u);

  f.inject(0, frame_between(1, 3));  // the route refuses MAC 3
  f.sim.run();
  EXPECT_EQ(f.sinks[1].received.size(), 0u);
  EXPECT_EQ(f.sw->stats().no_route_drops, 1u);

  f.inject(0, frame_between(1, 0, /*broadcast=*/true));  // dropped, not flooded
  f.sim.run();
  EXPECT_EQ(f.sinks[1].received.size(), 0u);
  EXPECT_EQ(f.sw->stats().no_route_drops, 2u);
  EXPECT_EQ(f.sw->stats().flooded, 0u);

  f.inject(0, frame_between(1, 2));  // routed
  f.sim.run();
  EXPECT_EQ(f.sinks[1].received.size(), 1u);
  EXPECT_EQ(f.sw->stats().forwarded, 1u);
  EXPECT_EQ(f.sw->lookup(net::MacAddress::from_host_id(2)), 1);

  // Spoofed sources teach it nothing: lookups still come from the route.
  for (std::uint32_t src = 100; src < 200; ++src) {
    f.inject(1, frame_between(src, 3));
    f.sim.run();
  }
  EXPECT_EQ(f.sw->lookup(net::MacAddress::from_host_id(150)), -1);
  EXPECT_EQ(f.sw->fib_size(), 0u);
  EXPECT_EQ(f.sw->fib_memory_bytes(), 0u);
  EXPECT_EQ(f.sw->stats().fib_evictions, 0u);
  EXPECT_EQ(f.sw->stats().no_route_drops, 102u);
}

}  // namespace
}  // namespace barb::link
