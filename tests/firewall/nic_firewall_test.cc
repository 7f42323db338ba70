#include "firewall/nic_firewall.h"

#include <gtest/gtest.h>

#include "firewall/policy.h"
#include "link/link.h"
#include "net/packet_builder.h"
#include "sim/simulation.h"

namespace barb::firewall {
namespace {

// Harness: a FirewallNic between a wire (link) and a host-side collector.
struct Harness {
  sim::Simulation sim{1};
  link::Link link;
  FirewallNic nic;
  struct Collector : link::FrameSink {
    std::vector<net::Packet> frames;
    void deliver(net::Packet pkt) override { frames.push_back(std::move(pkt)); }
  } host_side, wire_side;

  static link::LinkConfig deep_link() {
    link::LinkConfig cfg;
    cfg.queue_bytes = 1024 * 1024;  // tests saturate the NIC, not the wire
    return cfg;
  }

  explicit Harness(DeviceProfile profile = efw_profile(),
                   MatchBackend backend = MatchBackend::kLinear)
      : link(sim, deep_link()),
        nic(sim, net::MacAddress::from_host_id(40), "fw", std::move(profile), backend) {
    nic.attach(link.b());
    nic.set_host_sink(&host_side);
    link.a().connect_sink(&wire_side);
  }

  void install(const char* policy) {
    auto parsed = parse_policy(policy);
    ASSERT_TRUE(parsed.ok());
    nic.install_rule_set(std::move(*parsed.rule_set));
  }

  // Sends a frame from the wire toward the NIC.
  void from_wire(std::vector<std::uint8_t> frame) {
    link.a().send(net::Packet{std::move(frame), sim.now(), 0});
  }
};

std::vector<std::uint8_t> udp_frame(std::uint8_t src_last, std::uint16_t dst_port,
                                    std::size_t payload_len = 10) {
  net::IpEndpoints ep;
  ep.src_ip = net::Ipv4Address(10, 0, 0, src_last);
  ep.dst_ip = net::Ipv4Address(10, 0, 0, 40);
  ep.src_mac = net::MacAddress::from_host_id(src_last);
  ep.dst_mac = net::MacAddress::from_host_id(40);
  const std::vector<std::uint8_t> payload(payload_len, 0x42);
  return net::build_udp_frame(ep, 4000, dst_port, payload);
}

TEST(FirewallNic, UnconfiguredCardPassesTraffic) {
  Harness h;
  h.from_wire(udp_frame(1, 80));
  h.sim.run();
  EXPECT_EQ(h.host_side.frames.size(), 1u);
  EXPECT_EQ(h.nic.fw_stats().rx_allowed, 1u);
}

TEST(FirewallNic, DenyRuleDropsInbound) {
  Harness h;
  h.install("default deny\nallow udp from any to any port 80\n");
  h.from_wire(udp_frame(1, 80));
  h.from_wire(udp_frame(1, 81));
  h.sim.run();
  EXPECT_EQ(h.host_side.frames.size(), 1u);
  EXPECT_EQ(h.nic.fw_stats().rx_allowed, 1u);
  EXPECT_EQ(h.nic.fw_stats().rx_denied, 1u);
}

TEST(FirewallNic, OutboundFilteredToo) {
  Harness h;
  h.install("default deny\nallow udp from any to any port 80\n");
  net::IpEndpoints ep;
  ep.src_ip = net::Ipv4Address(10, 0, 0, 40);
  ep.dst_ip = net::Ipv4Address(10, 0, 0, 1);
  ep.src_mac = net::MacAddress::from_host_id(40);
  ep.dst_mac = net::MacAddress::from_host_id(1);
  const std::vector<std::uint8_t> payload(8, 1);
  h.nic.transmit({net::build_udp_frame(ep, 9, 80, payload), h.sim.now(), 0});
  h.nic.transmit({net::build_udp_frame(ep, 9, 99, payload), h.sim.now(), 0});
  h.sim.run();
  EXPECT_EQ(h.wire_side.frames.size(), 1u);
  EXPECT_EQ(h.nic.fw_stats().tx_allowed, 1u);
  EXPECT_EQ(h.nic.fw_stats().tx_denied, 1u);
}

TEST(FirewallNic, ServiceTimeScalesWithRuleDepth) {
  // Time 100 frames through a depth-1 and a depth-64 policy; the ratio of
  // processing times must reflect the linear rule walk.
  auto run_with_depth = [](int depth) {
    Harness h;
    std::string policy = "default deny\n";
    for (int i = 1; i < depth; ++i) {
      policy += "deny tcp from 192.168.0." + std::to_string(i % 250 + 1) +
                " to 192.168.250.1\n";
    }
    policy += "allow any from any to any\n";
    h.install(policy.c_str());
    for (int i = 0; i < 100; ++i) h.from_wire(udp_frame(1, 80));
    h.sim.run();
    EXPECT_EQ(h.host_side.frames.size(), 100u);
    return h.nic.fw_stats().cpu_busy;
  };

  const auto t1 = run_with_depth(1);
  const auto t64 = run_with_depth(64);
  // Expected mean ratio: (base + 64r) / (base + r) with the EFW profile.
  const auto profile = efw_profile();
  const double base =
      (profile.fixed + profile.arrival_overhead +
       profile.per_byte * static_cast<std::int64_t>(udp_frame(1, 80).size()))
          .to_seconds();
  const double r = profile.per_rule.to_seconds();
  const double expected = (base + 64 * r) / (base + r);
  EXPECT_NEAR(t64 / t1, expected, expected * 0.1);
}

TEST(FirewallNic, BufferOverflowDropsFrames) {
  Harness h;
  // Behind a 64-rule policy a full-size frame takes ~160 us of service but
  // only ~118 us to arrive: the 64 KB RX buffer (~45 such frames) must
  // eventually overflow under a long back-to-back burst.
  std::string policy = "default deny\n";
  for (int i = 1; i < 64; ++i) {
    policy += "deny tcp from 192.168.0." + std::to_string(i % 250 + 1) +
              " to 192.168.250.1\n";
  }
  policy += "allow any from any to any\n";
  h.install(policy.c_str());
  for (int i = 0; i < 300; ++i) {
    h.from_wire(udp_frame(1, 80, 1400));
  }
  h.sim.run();
  EXPECT_GT(h.nic.fw_stats().rx_ring_drops, 0u);
  EXPECT_LT(h.host_side.frames.size(), 300u);
  EXPECT_GT(h.host_side.frames.size(), 40u);
}

TEST(FirewallNic, DenyFloodLatchesEfwLockup) {
  Harness h;  // EFW profile: lockup above 1000 denies/s
  h.install("default deny\n");
  ASSERT_FALSE(h.nic.locked_up());
  // 1200 denied frames inside one second.
  for (int i = 0; i < 1200; ++i) {
    h.sim.schedule(sim::Duration::microseconds(500) * static_cast<std::int64_t>(i),
                   [&h] { h.from_wire(udp_frame(1, 9)); });
  }
  h.sim.run();
  EXPECT_TRUE(h.nic.locked_up());
  EXPECT_EQ(h.host_side.frames.size(), 0u);

  // While latched, even allowed traffic dies.
  h.install("default allow\n");
  h.from_wire(udp_frame(1, 80));
  h.sim.run();
  EXPECT_EQ(h.host_side.frames.size(), 0u);
  EXPECT_GT(h.nic.fw_stats().lockup_drops, 0u);

  // Agent restart restores service (the paper's recovery procedure).
  h.nic.restart();
  EXPECT_FALSE(h.nic.locked_up());
  h.from_wire(udp_frame(1, 80));
  h.sim.run();
  EXPECT_EQ(h.host_side.frames.size(), 1u);
}

TEST(FirewallNic, AdfDoesNotLockUp) {
  Harness h(adf_profile());
  h.install("default deny\n");
  for (int i = 0; i < 3000; ++i) {
    h.sim.schedule(sim::Duration::microseconds(300) * static_cast<std::int64_t>(i),
                   [&h] { h.from_wire(udp_frame(1, 9)); });
  }
  h.sim.run();
  EXPECT_FALSE(h.nic.locked_up());
}

TEST(FirewallNic, SlowDenyRateDoesNotLatch) {
  Harness h;
  h.install("default deny\n");
  // 900 denies/s sustained for 3 seconds stays below the 1000/s threshold.
  for (int i = 0; i < 2700; ++i) {
    h.sim.schedule(sim::Duration::from_seconds(i / 900.0),
                   [&h] { h.from_wire(udp_frame(1, 9)); });
  }
  h.sim.run();
  EXPECT_FALSE(h.nic.locked_up());
}

TEST(FirewallNic, ManagementPeerBypassesPolicy) {
  Harness h;
  h.install("default deny\n");
  h.nic.set_management_peer(net::Ipv4Address(10, 0, 0, 10));

  net::IpEndpoints ep;
  ep.src_ip = net::Ipv4Address(10, 0, 0, 10);  // policy server
  ep.dst_ip = net::Ipv4Address(10, 0, 0, 40);
  ep.src_mac = net::MacAddress::from_host_id(10);
  ep.dst_mac = net::MacAddress::from_host_id(40);
  const std::vector<std::uint8_t> payload(8, 1);
  h.from_wire(net::build_udp_frame(ep, 3456, 4000, payload));
  h.from_wire(udp_frame(1, 80));  // ordinary traffic still denied
  h.sim.run();
  EXPECT_EQ(h.host_side.frames.size(), 1u);
}

TEST(FirewallNic, VpgEndToEndBetweenTwoCards) {
  // client NIC <-> wire <-> target NIC, both with the same VPG installed.
  sim::Simulation sim(2);
  link::Link link(sim);
  FirewallNic client_nic(sim, net::MacAddress::from_host_id(30), "client",
                         adf_profile());
  FirewallNic target_nic(sim, net::MacAddress::from_host_id(40), "target",
                         adf_profile());
  client_nic.attach(link.a());
  target_nic.attach(link.b());

  struct Collector : link::FrameSink {
    std::vector<net::Packet> frames;
    void deliver(net::Packet pkt) override { frames.push_back(std::move(pkt)); }
  } client_host, target_host;
  client_nic.set_host_sink(&client_host);
  target_nic.set_host_sink(&target_host);

  const char* policy = "default deny\nvpg 7 between 10.0.0.30 and 10.0.0.40\n";
  for (auto* nic : {&client_nic, &target_nic}) {
    auto parsed = parse_policy(policy);
    ASSERT_TRUE(parsed.ok());
    nic->install_rule_set(std::move(*parsed.rule_set));
    nic->vpg_table().install(7, std::vector<std::uint8_t>(32, 0x7a));
  }

  net::IpEndpoints ep;
  ep.src_ip = net::Ipv4Address(10, 0, 0, 30);
  ep.dst_ip = net::Ipv4Address(10, 0, 0, 40);
  ep.src_mac = client_nic.mac();
  ep.dst_mac = target_nic.mac();
  const std::string text = "through the tunnel";
  const std::vector<std::uint8_t> payload(text.begin(), text.end());
  client_nic.transmit({net::build_udp_frame(ep, 5000, 5001, payload), sim.now(), 1});
  sim.run();

  // The receiving host sees the decrypted original datagram.
  ASSERT_EQ(target_host.frames.size(), 1u);
  auto view = net::FrameView::parse(target_host.frames[0].bytes());
  ASSERT_TRUE(view && view->udp);
  EXPECT_EQ(view->ip->protocol, 17);
  EXPECT_EQ(std::string(view->l4_payload.begin(), view->l4_payload.end()), text);
  EXPECT_EQ(client_nic.vpg_table().stats().encapsulated, 1u);
  EXPECT_EQ(target_nic.vpg_table().stats().decapsulated, 1u);
}

TEST(FirewallNic, CleartextSpoofIntoVpgDropped) {
  Harness h(adf_profile());
  h.install("default deny\nvpg 7 between 10.0.0.30 and 10.0.0.40\n");
  h.nic.vpg_table().install(7, std::vector<std::uint8_t>(32, 0x7a));

  // An attacker spoofs cleartext UDP matching the VPG's selectors.
  net::IpEndpoints ep;
  ep.src_ip = net::Ipv4Address(10, 0, 0, 30);
  ep.dst_ip = net::Ipv4Address(10, 0, 0, 40);
  ep.src_mac = net::MacAddress::from_host_id(20);
  ep.dst_mac = net::MacAddress::from_host_id(40);
  const std::vector<std::uint8_t> payload(10, 0x66);
  h.from_wire(net::build_udp_frame(ep, 5000, 5001, payload));
  h.sim.run();

  EXPECT_EQ(h.host_side.frames.size(), 0u);
  EXPECT_EQ(h.nic.fw_stats().vpg_drops, 1u);
}

TEST(FirewallNic, RestartFlushesQueuedFrames) {
  Harness h;
  for (int i = 0; i < 20; ++i) h.from_wire(udp_frame(1, 80));
  // Let the frames arrive and queue, then restart before they are serviced.
  h.sim.run_for(sim::Duration::microseconds(200));
  h.nic.restart();
  h.sim.run();
  EXPECT_LT(h.host_side.frames.size(), 20u);
  // New traffic after restart flows normally.
  h.from_wire(udp_frame(1, 80));
  h.sim.run();
  EXPECT_GE(h.host_side.frames.size(), 1u);
}

TEST(FirewallNic, FramesForOtherMacsIgnored) {
  Harness h;
  net::IpEndpoints ep;
  ep.src_ip = net::Ipv4Address(10, 0, 0, 1);
  ep.dst_ip = net::Ipv4Address(10, 0, 0, 40);
  ep.src_mac = net::MacAddress::from_host_id(1);
  ep.dst_mac = net::MacAddress::from_host_id(99);  // not us
  const std::vector<std::uint8_t> payload(8, 1);
  h.from_wire(net::build_udp_frame(ep, 1, 2, payload));
  h.sim.run();
  EXPECT_EQ(h.host_side.frames.size(), 0u);
  EXPECT_EQ(h.nic.fw_stats().frames_processed, 0u);
}

// The paper's cards are linear and stateless: neither flow table is ever
// used, so neither exists. On the backend that uses one, the table's slots
// are allocated by the first frame that needs them.
TEST(FirewallNic, LinearStatelessCardHoldsNoFlowTables) {
  constexpr const char* kPolicy = "default deny\nallow udp from any to any port 80\n";
  for (const auto& profile : {efw_profile(), adf_profile()}) {
    SCOPED_TRACE(profile.name);
    Harness h(profile);
    h.from_wire(udp_frame(1, 80));
    h.sim.run();
    h.install(kPolicy);
    h.from_wire(udp_frame(1, 80));
    h.from_wire(udp_frame(2, 81));
    h.sim.run();
    h.nic.restart();
    h.from_wire(udp_frame(3, 80));
    h.sim.run();
    EXPECT_EQ(h.host_side.frames.size(), 3u);
    EXPECT_EQ(h.nic.fw_stats().rx_denied, 1u);
    EXPECT_EQ(h.nic.matcher().flow_cache(), nullptr);
    EXPECT_EQ(h.nic.matcher().flow_states(), nullptr);
    // What the card does hold: two rules, an empty ring queue, its name.
    EXPECT_LT(h.nic.memory_bytes(), 1024u);
  }

  {
    SCOPED_TRACE("linear+stateful");
    Harness h(efw_profile(), MatchBackend::kLinearStateful);
    ASSERT_NE(h.nic.matcher().flow_states(), nullptr);
    const FlowStateTable& states = *h.nic.matcher().flow_states();
    h.install(kPolicy);
    h.from_wire(udp_frame(1, 81));  // denied: no state
    h.sim.run();
    EXPECT_EQ(states.memory_bytes(), 0u);
    h.from_wire(udp_frame(1, 80));
    h.sim.run();
    EXPECT_EQ(states.size(), 1u);
    EXPECT_GE(states.memory_bytes(), states.slot_count() * sizeof(std::uint32_t));
    EXPECT_EQ(h.nic.matcher().flow_cache(), nullptr);
  }

  {
    SCOPED_TRACE("compiled+flowcache");
    Harness h(adf_profile(), MatchBackend::kCompiledFlowCache);
    ASSERT_NE(h.nic.matcher().flow_cache(), nullptr);
    const FlowCache& cache = *h.nic.matcher().flow_cache();
    h.install(kPolicy);
    EXPECT_EQ(cache.memory_bytes(), 0u);
    h.from_wire(udp_frame(1, 81));  // deny verdicts are cached too
    h.sim.run();
    EXPECT_EQ(h.nic.fw_stats().rx_denied, 1u);
    EXPECT_EQ(cache.memory_bytes(), cache.capacity() * FlowCache::slot_bytes());
    EXPECT_EQ(h.nic.matcher().flow_states(), nullptr);
    EXPECT_GT(h.nic.memory_bytes(), cache.memory_bytes());
  }
}

// One script on one ADF card per backend, without jitter, pinning every
// charge and verdict. The constants were recorded before the backends
// moved behind firewall::Matcher (the stateful card then being a linear
// card with a `stateful` flag), so any changed charge fails here.
TEST(FirewallNic, ServiceTimePinnedPerBackend) {
  // 64 rule units: the allow for UDP port 80 is unit 33, so a frame of the
  // allowed flow walks 33 units and a denied one all 64.
  std::string policy = "default deny\n";
  const auto pad = [&policy](int i) {
    policy += "deny tcp from 192.168.0." + std::to_string(i) + " to 192.168.250.1\n";
  };
  for (int i = 1; i <= 32; ++i) pad(i);
  policy += "allow udp from any to any port 80\n";
  for (int i = 33; i <= 63; ++i) pad(i);

  struct Pinned {
    MatchBackend backend;
    std::int64_t cpu_busy_ns;
    std::uint64_t rules_traversed;
    // Compiled backends only.
    MatchPathStats match;
    std::uint64_t flow_hits, flow_misses, flow_stale_hits;
  };
  const Pinned cards[] = {
      {MatchBackend::kLinear, 1116400, 326, {}, 0, 0, 0},
      {MatchBackend::kLinearStateful, 835320, 227, {}, 0, 0, 0},
      {MatchBackend::kCompiled, 202880, 326, {8, 192, 2}, 0, 0, 0},
      {MatchBackend::kCompiledFlowCache, 197680, 326, {8, 120, 2}, 3, 5, 2},
  };
  for (const Pinned& want : cards) {
    SCOPED_TRACE(to_string(want.backend));
    auto profile = adf_profile();
    profile.service_jitter = 0;
    Harness h(profile, want.backend);
    h.install(policy.c_str());
    h.sim.run();
    for (int i = 0; i < 3; ++i) h.from_wire(udp_frame(1, 80));
    h.sim.run();
    net::IpEndpoints reply;
    reply.src_ip = net::Ipv4Address(10, 0, 0, 40);
    reply.dst_ip = net::Ipv4Address(10, 0, 0, 1);
    reply.src_mac = net::MacAddress::from_host_id(40);
    reply.dst_mac = net::MacAddress::from_host_id(1);
    const std::vector<std::uint8_t> payload(10, 0x42);
    h.nic.transmit({net::build_udp_frame(reply, 80, 4000, payload), h.sim.now(), 0});
    h.sim.run();
    for (int i = 0; i < 2; ++i) h.from_wire(udp_frame(1, 81));
    h.sim.run();
    h.nic.restart();
    h.from_wire(udp_frame(1, 80));
    h.sim.run();
    h.install(policy.c_str());
    h.sim.run();
    h.from_wire(udp_frame(1, 80));
    h.sim.run();

    const FirewallNicStats& fw = h.nic.fw_stats();
    EXPECT_EQ(fw.cpu_busy.ns(), want.cpu_busy_ns);
    EXPECT_EQ(fw.rules_traversed, want.rules_traversed);
    EXPECT_EQ(fw.rx_allowed, 5u);
    EXPECT_EQ(fw.rx_denied, 2u);
    EXPECT_EQ(fw.tx_allowed, 1u);
    EXPECT_EQ(fw.tx_denied, 0u);
    EXPECT_EQ(h.host_side.frames.size(), 5u);
    EXPECT_EQ(h.wire_side.frames.size(), 1u);
    const MatchPathStats& match = h.nic.matcher().stats();
    EXPECT_EQ(match.lookups, want.match.lookups);
    EXPECT_EQ(match.compiled_nodes, want.match.compiled_nodes);
    EXPECT_EQ(match.rebuilds, want.match.rebuilds);
    const FlowCache* flow_cache = h.nic.matcher().flow_cache();
    const FlowCacheStats cache = flow_cache ? flow_cache->stats() : FlowCacheStats{};
    EXPECT_EQ(cache.hits, want.flow_hits);
    EXPECT_EQ(cache.misses, want.flow_misses);
    EXPECT_EQ(cache.stale_hits, want.flow_stale_hits);
  }
}

}  // namespace
}  // namespace barb::firewall
