#include "firewall/software_firewall.h"

#include <gtest/gtest.h>

#include "firewall/policy.h"
#include "net/packet_builder.h"
#include "sim/simulation.h"

namespace barb::firewall {
namespace {

net::Packet udp_packet(std::uint16_t dst_port) {
  net::IpEndpoints ep;
  ep.src_ip = net::Ipv4Address(10, 0, 0, 1);
  ep.dst_ip = net::Ipv4Address(10, 0, 0, 40);
  ep.src_mac = net::MacAddress::from_host_id(1);
  ep.dst_mac = net::MacAddress::from_host_id(40);
  const std::vector<std::uint8_t> payload(10, 0x42);
  return net::Packet{net::build_udp_frame(ep, 4000, dst_port, payload),
                     sim::TimePoint::origin(), 0};
}

TEST(SoftwareFirewall, DefaultAllowsEverything) {
  sim::Simulation sim;
  SoftwareFirewall fw(sim);
  int passed = 0;
  fw.filter(stack::FilterDirection::kInput, udp_packet(80),
            [&](net::Packet) { ++passed; });
  sim.run();
  EXPECT_EQ(passed, 1);
  EXPECT_EQ(fw.stats().allowed, 1u);
}

TEST(SoftwareFirewall, DeniedPacketNeverResumes) {
  sim::Simulation sim;
  SoftwareFirewall fw(sim);
  auto parsed = parse_policy("default deny\nallow udp from any to any port 80\n");
  ASSERT_TRUE(parsed.ok());
  fw.install_rule_set(std::move(*parsed.rule_set));

  int passed = 0;
  fw.filter(stack::FilterDirection::kInput, udp_packet(80),
            [&](net::Packet) { ++passed; });
  fw.filter(stack::FilterDirection::kInput, udp_packet(99),
            [&](net::Packet) { ++passed; });
  sim.run();
  EXPECT_EQ(passed, 1);
  EXPECT_EQ(fw.stats().allowed, 1u);
  EXPECT_EQ(fw.stats().denied, 1u);
}

TEST(SoftwareFirewall, ProcessingTakesHostCpuTime) {
  sim::Simulation sim;
  SoftwareFirewallConfig cfg;
  cfg.per_packet = sim::Duration::microseconds(2);
  cfg.per_rule = sim::Duration::nanoseconds(100);
  SoftwareFirewall fw(sim, cfg);
  auto parsed = parse_policy("default deny\nallow udp from any to any port 80\n");
  ASSERT_TRUE(parsed.ok());
  fw.install_rule_set(std::move(*parsed.rule_set));

  sim::TimePoint delivered;
  fw.filter(stack::FilterDirection::kInput, udp_packet(80),
            [&](net::Packet) { delivered = sim.now(); });
  sim.run();
  // 2 us + 1 rule * 100 ns.
  EXPECT_EQ(delivered.ns(), 2100);
}

TEST(SoftwareFirewall, QueueSerializesPackets) {
  sim::Simulation sim;
  SoftwareFirewallConfig cfg;
  cfg.per_packet = sim::Duration::microseconds(5);
  SoftwareFirewall fw(sim, cfg);

  std::vector<sim::TimePoint> deliveries;
  for (int i = 0; i < 3; ++i) {
    fw.filter(stack::FilterDirection::kInput, udp_packet(80),
              [&](net::Packet) { deliveries.push_back(sim.now()); });
  }
  sim.run();
  ASSERT_EQ(deliveries.size(), 3u);
  EXPECT_EQ(deliveries[0].ns(), 5000);
  EXPECT_EQ(deliveries[1].ns(), 10000);
  EXPECT_EQ(deliveries[2].ns(), 15000);
}

TEST(SoftwareFirewall, BacklogOverflowDrops) {
  sim::Simulation sim;
  SoftwareFirewallConfig cfg;
  cfg.backlog = 10;
  SoftwareFirewall fw(sim, cfg);
  int passed = 0;
  for (int i = 0; i < 25; ++i) {
    fw.filter(stack::FilterDirection::kInput, udp_packet(80),
              [&](net::Packet) { ++passed; });
  }
  sim.run();
  // 1 in service + 10 queued... the first is popped only at completion, so
  // exactly `backlog` fit plus those admitted as the queue drains: here all
  // arrive at t=0, so 10 are queued and 15 drop.
  EXPECT_EQ(passed, 10);
  EXPECT_EQ(fw.stats().backlog_drops, 15u);
}

TEST(SoftwareFirewall, CapacityFarExceedsNicFirewall) {
  // The headline comparison: at 64 rules the host CPU sustains far beyond
  // the 100 Mbps maximum frame rate, while the NIC firewall caps out around
  // 6-7 kpps for full-size frames.
  SoftwareFirewallConfig cfg;
  const double per_packet_s =
      (cfg.per_packet + cfg.per_rule * 64).to_seconds();
  EXPECT_GT(1.0 / per_packet_s, 148810.0);
}

TEST(SoftwareFirewall, BothDirectionsShareTheCpu) {
  sim::Simulation sim;
  SoftwareFirewallConfig cfg;
  cfg.per_packet = sim::Duration::microseconds(10);
  SoftwareFirewall fw(sim, cfg);
  std::vector<int> order;
  fw.filter(stack::FilterDirection::kInput, udp_packet(80),
            [&](net::Packet) { order.push_back(1); });
  fw.filter(stack::FilterDirection::kOutput, udp_packet(80),
            [&](net::Packet) { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(sim.now().ns(), 20000);
}

// The host filter is linear-only: after a policy and a packet it holds its
// rules and an empty backlog queue, nothing else.
TEST(SoftwareFirewall, HoldsOnlyRulesAndBacklog) {
  sim::Simulation sim;
  SoftwareFirewall fw(sim);
  auto parsed = parse_policy("default deny\nallow udp from any to any port 80\n");
  ASSERT_TRUE(parsed.ok());
  fw.install_rule_set(std::move(*parsed.rule_set));
  int passed = 0;
  fw.filter(stack::FilterDirection::kInput, udp_packet(80),
            [&](net::Packet) { ++passed; });
  sim.run();
  EXPECT_EQ(passed, 1);
  EXPECT_LT(fw.memory_bytes(), 1024u);
}

}  // namespace
}  // namespace barb::firewall
