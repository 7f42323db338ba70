// TopologyBuilder and the fabric presets: deterministic construction,
// fabric invariants (routes, switch/host counts, shared directory), actual
// cross-fabric reachability, and the Testbed preset's wiring equivalence.
#include "core/topology.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "apps/flood_generator.h"
#include "apps/ping.h"
#include "core/testbed.h"
#include "sim/simulation.h"
#include "testutil/reference_routes.h"
#include "testutil/tcp_helpers.h"

namespace barb::core {
namespace {

// A compact wiring digest: anything that should be a pure function of the
// spec (names, addresses, attachment, routing) folded into one string.
std::string wiring_digest(Fabric& fabric) {
  std::string digest;
  for (int i = 0; i < fabric.num_hosts(); ++i) {
    digest += fabric.host(i).name() + "/" + fabric.host(i).ip().to_string() +
              "/" + fabric.host(i).mac().to_string() + "@" +
              std::to_string(fabric.host_switch(i)) + ";";
  }
  for (int s = 0; s < fabric.num_switches(); ++s) {
    link::Switch& sw = fabric.fabric_switch(s);
    digest += sw.name() + ":" + std::to_string(sw.num_ports()) + ":" +
              std::to_string(sw.fib_size()) + ";";
    // Route rows: every host's egress port out of this switch.
    for (int h = 0; h < fabric.num_hosts(); ++h) {
      digest += std::to_string(sw.lookup(fabric.host(h).mac())) + ",";
    }
    digest += ";";
  }
  return digest;
}

TEST(TopologyBuilder, LeafSpineSameSpecSameWiring) {
  LeafSpineSpec spec;
  spec.hosts = 48;
  spec.hosts_per_leaf = 8;
  spec.spines = 3;

  sim::Simulation sim_a(1), sim_b(2);  // wiring must not depend on the seed
  auto a = build_leaf_spine(sim_a, spec);
  auto b = build_leaf_spine(sim_b, spec);
  EXPECT_EQ(wiring_digest(*a), wiring_digest(*b));
}

// The invariants every leaf-spine holds. Both shapes below have three
// leaves and a host count that is not a multiple of the leaf size, so the
// last leaf holds the remainder.
void expect_leaf_spine_invariants(int spines, int hosts, int hosts_per_leaf) {
  LeafSpineSpec spec;
  spec.hosts = hosts;
  spec.hosts_per_leaf = hosts_per_leaf;
  spec.spines = spines;
  const int leaves = (spec.hosts + spec.hosts_per_leaf - 1) / spec.hosts_per_leaf;
  sim::Simulation sim(1);
  auto fabric = build_leaf_spine(sim, spec);

  EXPECT_EQ(fabric->num_hosts(), spec.hosts);
  EXPECT_EQ(leaves, 3);
  EXPECT_EQ(fabric->num_switches(), spines + leaves);
  EXPECT_TRUE(fabric->all_hosts_routed());
  ASSERT_NE(fabric->directory(), nullptr);
  EXPECT_TRUE(fabric->directory()->frozen());
  EXPECT_EQ(fabric->directory()->size(), static_cast<std::size_t>(spec.hosts));

  // Port degrees: each spine has one trunk per leaf; each leaf has one
  // trunk per spine plus its hosts.
  for (int s = 0; s < spines; ++s) {
    EXPECT_EQ(fabric->fabric_switch(s).name(), "spine" + std::to_string(s));
    EXPECT_EQ(fabric->fabric_switch(s).num_ports(), leaves);
  }
  const int last = spec.hosts - 2 * spec.hosts_per_leaf;
  EXPECT_EQ(fabric->fabric_switch(spines).name(), "leaf0");
  EXPECT_EQ(fabric->fabric_switch(spines).num_ports(), spines + spec.hosts_per_leaf);
  EXPECT_EQ(fabric->fabric_switch(spines + 1).num_ports(), spines + spec.hosts_per_leaf);
  EXPECT_EQ(fabric->fabric_switch(spines + 2).num_ports(), spines + last);

  // Hosts land on their leaf in declaration order.
  EXPECT_EQ(fabric->host_switch(0), spines);
  EXPECT_EQ(fabric->host_switch(spec.hosts_per_leaf - 1), spines);
  EXPECT_EQ(fabric->host_switch(spec.hosts_per_leaf), spines + 1);
  EXPECT_EQ(fabric->host_switch(spec.hosts - 1), spines + 2);

  // Fabric switches are routed (with two spines the paths are redundant; a
  // one-spine tree is routed all the same): none holds a FIB.
  EXPECT_EQ(fabric->memory_audit().switch_fib_bytes, 0u);
  for (int s = 0; s < fabric->num_switches(); ++s) {
    EXPECT_EQ(fabric->fabric_switch(s).fib_size(), 0u) << s;
  }
}

// 40 hosts, 16 per leaf, under two spines.
TEST(TopologyBuilder, LeafSpineInvariants) { expect_leaf_spine_invariants(2, 40, 16); }

// The campus tree is a one-spine leaf-spine: 20 hosts, 8 per edge switch,
// under one core.
TEST(TopologyBuilder, CampusTreeInvariants) { expect_leaf_spine_invariants(1, 20, 8); }

TEST(TopologyBuilder, CrossFabricPingWorks) {
  LeafSpineSpec spec;
  spec.hosts = 32;
  spec.hosts_per_leaf = 8;
  spec.spines = 2;
  sim::Simulation sim(1);
  auto fabric = build_leaf_spine(sim, spec);

  // Host 0 (leaf 0) pings host 31 (last leaf) across the spine.
  apps::PingClient ping(fabric->host(0), fabric->host(31).ip());
  apps::PingResult result;
  ping.run(5, [&](apps::PingResult r) { result = r; },
           sim::Duration::milliseconds(10));
  sim.run();
  EXPECT_EQ(result.sent, 5u);
  EXPECT_EQ(result.received, 5u);
  EXPECT_EQ(result.loss_fraction, 0.0);
}

// A 200 kB TCP transfer from leaf 0 to leaf 1 crosses the spine through
// trunks and routed switches: every byte arrives intact, the stream closes,
// and the simulation drains.
TEST(TopologyBuilder, CrossSpineTcpTransferDeliversEveryByte) {
  sim::Simulation sim(7);
  LeafSpineSpec spec;
  spec.hosts = 8;
  spec.hosts_per_leaf = 4;
  spec.spines = 2;
  auto fabric = build_leaf_spine(sim, spec);

  testutil::VerifyingReceiver receiver;
  fabric->host(5).tcp_listen(
      7000, [&receiver](std::shared_ptr<stack::TcpConnection> c) {
        receiver.attach(c);
      });
  auto conn = fabric->host(0).tcp_connect(fabric->host(5).ip(), 7000);
  testutil::BulkSender sender(conn, 200'000);

  sim.run_until(sim::TimePoint() + sim::Duration::from_seconds(30));
  EXPECT_TRUE(sim.scheduler().empty());
  EXPECT_EQ(receiver.received(), 200'000u);
  EXPECT_EQ(receiver.mismatches(), 0u);
  EXPECT_TRUE(receiver.eof());
}

TEST(TopologyBuilder, MemoryAuditCoversEveryHost) {
  LeafSpineSpec spec;
  spec.hosts = 64;
  spec.default_nic.kind = FirewallKind::kAdf;
  sim::Simulation sim(1);
  auto fabric = build_leaf_spine(sim, spec);

  const MemoryAudit audit = fabric->memory_audit();
  EXPECT_EQ(audit.hosts, 64u);
  EXPECT_GT(audit.directory_bytes, 0u);
  EXPECT_EQ(audit.switch_fib_bytes, 0u);  // routed switches hold no FIB
  EXPECT_GT(audit.host_object_bytes, 0u);
  EXPECT_GT(audit.per_host_bytes(), 0u);

  // Address resolution is the one shared directory: its bytes per host stay
  // O(1), independent of fleet size (a full mesh of per-host maps would
  // grow linearly with the host count).
  EXPECT_EQ(audit.directory_bytes,
            sizeof(stack::AddressDirectory) + fabric->directory()->memory_bytes());
  LeafSpineSpec small = spec;
  small.hosts = 16;
  sim::Simulation sim_small(1);
  auto fabric_small = build_leaf_spine(sim_small, small);
  EXPECT_EQ(fabric->directory()->memory_bytes() / 64,
            fabric_small->directory()->memory_bytes() / 16);
}

TEST(TopologyBuilder, PerHostNicProfilesApply) {
  LeafSpineSpec spec;
  spec.hosts = 8;
  spec.nic_for = [](int index) {
    NicSpec nic;
    nic.kind = index % 2 == 0 ? FirewallKind::kEfw : FirewallKind::kNone;
    return nic;
  };
  sim::Simulation sim(1);
  auto fabric = build_leaf_spine(sim, spec);
  for (int i = 0; i < 8; ++i) {
    if (i % 2 == 0) {
      EXPECT_NE(fabric->firewall(i), nullptr) << "host " << i;
    } else {
      EXPECT_EQ(fabric->firewall(i), nullptr) << "host " << i;
    }
  }
}

TEST(TopologyBuilder, FleetMetricsRegisterAndSample) {
  LeafSpineSpec spec;
  spec.hosts = 16;
  sim::Simulation sim(1);
  telemetry::MetricRegistry registry;
  auto fabric = build_leaf_spine(sim, spec);
  fabric->register_fleet_metrics(registry);
  EXPECT_EQ(registry.value("fleet.hosts"), 16.0);
  EXPECT_GT(registry.value("mem.per_host_bytes"), 0.0);
  EXPECT_GT(registry.value("mem.total_bytes"), 0.0);
  EXPECT_EQ(registry.value("mem.switch_fib_bytes"), 0.0);
  for (const char* sw : {"switch=spine0", "switch=spine1", "switch=leaf0"}) {
    EXPECT_EQ(registry.value("switch.fib_entries", sw), 0.0) << sw;
    EXPECT_EQ(registry.value("switch.fib_bytes", sw), 0.0) << sw;
  }
}

// Every leaf-spine switch computes the port the shortest-path reference
// picks (the rule the builder used to preload into per-switch FIBs), for
// every host, and refuses every MAC that is not one of the fabric's hosts.
// Shapes: one to four spines over a single host, a single partly filled
// leaf, a single full leaf, partly filled last leaves (100 hosts by 7,
// 40 by 16) and 1,024 hosts by 16 (the fleet1024 shape at two spines).
TEST(TopologyBuilder, LeafSpineRoutesMatchShortestPathReference) {
  struct Shape {
    int hosts, hosts_per_leaf;
  };
  const Shape shapes[] = {{1, 1}, {1, 16}, {5, 16}, {16, 16}, {100, 7}, {40, 16}, {1024, 16}};
  for (int spines = 1; spines <= 4; ++spines) {
    for (const Shape& shape : shapes) {
      LeafSpineSpec spec;
      spec.hosts = shape.hosts;
      spec.hosts_per_leaf = shape.hosts_per_leaf;
      spec.spines = spines;
      sim::Simulation sim(1);
      auto fabric = build_leaf_spine(sim, spec);
      const auto routes = testutil::reference::shortest_path_routes(*fabric);
      const std::string where = std::to_string(spines) + " spines, " +
                                std::to_string(shape.hosts) + " hosts by " +
                                std::to_string(shape.hosts_per_leaf);
      const net::MacAddress refused[] = {
          net::MacAddress::broadcast(),
          net::MacAddress::from_host_id(0),
          net::MacAddress::from_host_id(static_cast<std::uint32_t>(shape.hosts) + 1),
          net::MacAddress({0x02, 0x01, 0, 0, 0, 1}),  // another prefix
      };
      int mismatches = 0;
      for (int s = 0; s < fabric->num_switches(); ++s) {
        const link::Switch& sw = fabric->fabric_switch(s);
        for (int h = 0; h < shape.hosts; ++h) {
          const int want = routes[static_cast<std::size_t>(s)][static_cast<std::size_t>(h)];
          ASSERT_GE(want, 0) << where;
          if (sw.lookup(fleet_mac(h)) != want) ++mismatches;
        }
        for (const net::MacAddress& mac : refused) {
          EXPECT_EQ(sw.lookup(mac), -1) << where << ", " << sw.name() << ", "
                                        << mac.to_string();
        }
      }
      EXPECT_EQ(mismatches, 0) << where;
      EXPECT_TRUE(fabric->all_hosts_routed()) << where;
    }
  }
}

// fleet_host_index inverts fleet_mac on the fabric's hosts and nowhere else.
TEST(TopologyBuilder, FleetHostIndexInvertsFleetMac) {
  for (int h = 0; h < 1024; ++h) EXPECT_EQ(fleet_host_index(fleet_mac(h), 1024), h);
  EXPECT_EQ(fleet_host_index(fleet_mac(1024), 1024), -1);
  EXPECT_EQ(fleet_host_index(fleet_mac(70000), 1024), -1);
  EXPECT_EQ(fleet_host_index(fleet_mac(70000), 70001), 70000);  // id bytes past the third
  EXPECT_EQ(fleet_host_index(net::MacAddress::from_host_id(0), 1024), -1);
  EXPECT_EQ(fleet_host_index(net::MacAddress::broadcast(), 1024), -1);
  EXPECT_EQ(fleet_host_index(net::MacAddress({0x03, 0x00, 0, 0, 0, 1}), 1024), -1);
}

// The Testbed preset must still wire the paper's Figure 1 exactly: four
// hosts in the legacy order on one switch, legacy addresses and labels.
TEST(TopologyBuilder, TestbedPresetKeepsLegacyWiring) {
  sim::Simulation sim(1);
  TestbedConfig config;
  config.firewall = FirewallKind::kAdf;
  Testbed testbed(sim, config);

  Fabric& fabric = testbed.fabric();
  EXPECT_EQ(fabric.num_switches(), 1);
  EXPECT_EQ(fabric.num_hosts(), 4);
  EXPECT_EQ(fabric.host(0).name(), "policy");
  EXPECT_EQ(fabric.host(1).name(), "attacker");
  EXPECT_EQ(fabric.host(2).name(), "client");
  EXPECT_EQ(fabric.host(3).name(), "target");
  EXPECT_EQ(&testbed.policy_host(), &fabric.host(0));
  EXPECT_EQ(&testbed.target(), &fabric.host(3));
  EXPECT_EQ(testbed.target_firewall(), fabric.firewall(3));
  // The preset resolves through the shared directory like every fleet:
  // every host resolves all four hosts, itself included.
  ASSERT_NE(fabric.directory(), nullptr);
  EXPECT_TRUE(fabric.directory()->frozen());
  EXPECT_EQ(fabric.directory()->size(), 4u);
  for (int i = 0; i < fabric.num_hosts(); ++i) {
    EXPECT_EQ(fabric.host(i).directory(), fabric.directory());
    for (int j = 0; j < fabric.num_hosts(); ++j) {
      EXPECT_EQ(fabric.host(i).resolve(fabric.host(j).ip()), fabric.host(j).mac())
          << fabric.host(i).name() << " -> " << fabric.host(j).name();
    }
  }
  // The testbed switch keeps the classic learning switch: once every host
  // has sent a frame it holds all four, each on its own port.
  for (int i = 0; i < fabric.num_hosts(); ++i) {
    apps::PingClient ping(fabric.host(i), fabric.host((i + 1) % 4).ip());
    ping.run(1, [](apps::PingResult) {}, sim::Duration::milliseconds(10));
    sim.run_for(sim::Duration::milliseconds(20));
  }
  link::Switch& sw = testbed.ethernet_switch();
  EXPECT_GT(sw.fib_memory_bytes(), 0u);
  EXPECT_EQ(sw.fib_size(), 4u);
  for (int i = 0; i < fabric.num_hosts(); ++i) EXPECT_EQ(sw.lookup(fabric.host(i).mac()), i);
}

// The attacker crafts its flood frames itself; their destination MAC comes
// from the directory, so every one reaches the target unicast.
TEST(TopologyBuilder, TestbedFloodFramesCarryTheTargetMac) {
  struct Tap : link::FrameSink {
    std::vector<net::MacAddress> dst_macs;
    void deliver(net::Packet pkt) override { dst_macs.push_back(pkt.view()->eth.dst); }
  };
  sim::Simulation sim(1);
  Testbed testbed(sim, TestbedConfig{});
  Tap tap;
  testbed.target().nic().set_host_sink(&tap);
  for (const bool spoof : {false, true}) {
    apps::FloodConfig cfg;
    cfg.target = testbed.addresses().target;
    cfg.rate_pps = 1000;
    cfg.spoof_source = spoof;
    apps::FloodGenerator flood(testbed.attacker(), cfg);
    flood.start();
    sim.run_for(sim::Duration::milliseconds(20));
    flood.stop();
    sim.run_for(sim::Duration::milliseconds(5));
  }
  ASSERT_EQ(tap.dst_macs.size(), 42u);
  for (const net::MacAddress& mac : tap.dst_macs) EXPECT_EQ(mac, testbed.target().mac());
}

}  // namespace
}  // namespace barb::core
