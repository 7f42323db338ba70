#include "firewall/classifier/compiled_classifier.h"

#include <gtest/gtest.h>

#include "firewall/nic_firewall.h"
#include "firewall/rule_set.h"
#include "net/packet_builder.h"
#include "sim/random.h"
#include "sim/simulation.h"

namespace barb::firewall {
namespace {

net::FiveTuple tcp_tuple(std::uint8_t src_last, std::uint8_t dst_last,
                         std::uint16_t dport, std::uint16_t sport = 40000) {
  net::FiveTuple t;
  t.src = net::Ipv4Address(10, 0, 0, src_last);
  t.dst = net::Ipv4Address(10, 0, 0, dst_last);
  t.src_port = sport;
  t.dst_port = dport;
  t.protocol = 6;
  return t;
}

Rule allow_to_port(std::uint16_t port) {
  Rule r;
  r.action = RuleAction::kAllow;
  r.protocol = 6;
  r.dst_ports = PortRange{port, port};
  return r;
}

Rule never_matches(int i) {
  Rule r;
  r.action = RuleAction::kDeny;
  r.src_net = net::Ipv4Address(192, 168, 0, static_cast<std::uint8_t>(i + 1));
  r.src_prefix = 32;
  return r;
}

// Full-struct equality against the linear matcher: the compiled backend's
// contract is bit-identical MatchResults, traversal counters included.
void expect_same(const RuleSet& rs, const CompiledClassifier& cc,
                 const net::FiveTuple& t) {
  const auto lin = rs.match(t);
  const auto cm = cc.match(t);
  EXPECT_EQ(cm.result.action, lin.action) << t.to_string();
  EXPECT_EQ(cm.result.matched_index, lin.matched_index) << t.to_string();
  EXPECT_EQ(cm.result.rules_traversed, lin.rules_traversed) << t.to_string();
  EXPECT_EQ(cm.result.vpg_rules_traversed, lin.vpg_rules_traversed) << t.to_string();
  EXPECT_EQ(cm.result.vpg_id, lin.vpg_id) << t.to_string();
  EXPECT_GE(cm.nodes, 1);
  EXPECT_LE(cm.nodes, cc.worst_case_nodes());
}

TEST(CompiledClassifier, EmptyRuleSetUsesDefault) {
  RuleSet deny;
  CompiledClassifier cc;
  cc.rebuild(deny);
  expect_same(deny, cc, tcp_tuple(1, 2, 80));

  RuleSet allow({}, RuleAction::kAllow);
  cc.rebuild(allow);
  expect_same(allow, cc, tcp_tuple(1, 2, 80));
  EXPECT_EQ(cc.match(tcp_tuple(1, 2, 80)).result.rules_traversed, 0);
}

TEST(CompiledClassifier, FirstMatchWinsOverShadowedRule) {
  RuleSet rs;
  Rule deny80;
  deny80.action = RuleAction::kDeny;
  deny80.dst_ports = PortRange{80, 80};
  rs.add(deny80);
  rs.add(allow_to_port(80));  // shadowed

  CompiledClassifier cc;
  cc.rebuild(rs);
  const auto cm = cc.match(tcp_tuple(1, 2, 80));
  EXPECT_EQ(cm.result.action, RuleAction::kDeny);
  EXPECT_EQ(cm.result.matched_index, 0);
  expect_same(rs, cc, tcp_tuple(1, 2, 80));
}

TEST(CompiledClassifier, TraversalCountersMatchLinearAtDepth) {
  for (const int depth : {1, 2, 8, 16, 32, 64}) {
    RuleSet rs;
    for (int i = 0; i < depth - 1; ++i) rs.add(never_matches(i));
    rs.add(allow_to_port(80));
    CompiledClassifier cc;
    cc.rebuild(rs);
    const auto cm = cc.match(tcp_tuple(1, 2, 80));
    EXPECT_EQ(cm.result.rules_traversed, depth);
    expect_same(rs, cc, tcp_tuple(1, 2, 80));
    // Miss (falls through to default): full-scan traversal cost.
    expect_same(rs, cc, tcp_tuple(1, 2, 81));
  }
}

TEST(CompiledClassifier, VpgPairCountsTwoUnits) {
  RuleSet rs;
  Rule vpg;
  vpg.action = RuleAction::kVpg;
  vpg.vpg_id = 7;
  vpg.src_net = net::Ipv4Address(192, 168, 1, 1);  // non-matching selectors
  vpg.src_prefix = 32;
  rs.add(vpg);
  rs.add(allow_to_port(80));

  CompiledClassifier cc;
  cc.rebuild(rs);
  const auto cm = cc.match(tcp_tuple(1, 2, 80));
  EXPECT_EQ(cm.result.rules_traversed, 3);  // 2 for the VPG pair + 1
  expect_same(rs, cc, tcp_tuple(1, 2, 80));
}

TEST(CompiledClassifier, BidirectionalRuleMatchesReversedTuple) {
  Rule r;
  r.action = RuleAction::kAllow;
  r.src_net = net::Ipv4Address(10, 0, 0, 30);
  r.src_prefix = 32;
  r.dst_net = net::Ipv4Address(10, 0, 0, 40);
  r.dst_prefix = 32;
  r.dst_ports = PortRange{80, 80};

  for (const bool bidir : {true, false}) {
    RuleSet rs;
    Rule rule = r;
    rule.bidirectional = bidir;
    rs.add(rule);
    CompiledClassifier cc;
    cc.rebuild(rs);
    // Forward direction always matches.
    expect_same(rs, cc, tcp_tuple(30, 40, 80));
    // Reverse direction (40 -> 30, sport 80) matches only when bidirectional.
    const auto back = tcp_tuple(40, 30, 9999, 80);
    EXPECT_EQ(cc.match(back).result.action,
              bidir ? RuleAction::kAllow : RuleAction::kDeny);
    expect_same(rs, cc, back);
  }
}

TEST(CompiledClassifier, PortRangeEdges) {
  Rule r;
  r.action = RuleAction::kAllow;
  r.dst_ports = PortRange{100, 200};
  RuleSet rs;
  rs.add(r);
  CompiledClassifier cc;
  cc.rebuild(rs);
  for (const std::uint16_t p : {99, 100, 150, 200, 201, 65535}) {
    expect_same(rs, cc, tcp_tuple(1, 2, p));
  }
  // hi == 65535 must not overflow the interval table.
  Rule top;
  top.action = RuleAction::kAllow;
  top.dst_ports = PortRange{65000, 65535};
  RuleSet rs2;
  rs2.add(top);
  cc.rebuild(rs2);
  for (const std::uint16_t p : {64999, 65000, 65535}) {
    expect_same(rs2, cc, tcp_tuple(1, 2, p));
  }
}

TEST(CompiledClassifier, EmptyPortRangeMatchesNothing) {
  // lo > hi (and not the 0..0 "any" form) is an unsatisfiable selector in
  // the linear matcher; the compiled table must agree, not wrap around.
  Rule r;
  r.action = RuleAction::kAllow;
  r.dst_ports = PortRange{200, 100};
  RuleSet rs;
  rs.add(r);
  rs.set_default_action(RuleAction::kDeny);
  CompiledClassifier cc;
  cc.rebuild(rs);
  for (const std::uint16_t p : {0, 100, 150, 200, 65535}) {
    expect_same(rs, cc, tcp_tuple(1, 2, p));
    EXPECT_EQ(cc.match(tcp_tuple(1, 2, p)).result.action, RuleAction::kDeny);
  }
}

TEST(CompiledClassifier, PrefixMaskingMatchesInSubnet) {
  // A rule whose network value has host bits set: in_subnet masks both
  // sides, so 10.0.3.7/24 covers all of 10.0.3.x.
  Rule r;
  r.action = RuleAction::kAllow;
  r.src_net = net::Ipv4Address(10, 0, 3, 7);
  r.src_prefix = 24;
  RuleSet rs;
  rs.add(r);
  CompiledClassifier cc;
  cc.rebuild(rs);
  expect_same(rs, cc, tcp_tuple(1, 2, 80));  // 10.0.0.1: outside
  net::FiveTuple in = tcp_tuple(1, 2, 80);
  in.src = net::Ipv4Address(10, 0, 3, 200);
  expect_same(rs, cc, in);
  EXPECT_EQ(cc.match(in).result.action, RuleAction::kAllow);
}

TEST(CompiledClassifier, VpgFrameResolvesByIdOnly) {
  RuleSet rs;
  Rule other;
  other.action = RuleAction::kVpg;
  other.vpg_id = 99;
  rs.add(other);
  Rule vpg;
  vpg.action = RuleAction::kVpg;
  vpg.vpg_id = 7;
  rs.add(vpg);
  CompiledClassifier cc;
  cc.rebuild(rs);

  net::IpEndpoints ep;
  ep.src_ip = net::Ipv4Address(10, 0, 0, 30);
  ep.dst_ip = net::Ipv4Address(10, 0, 0, 40);
  ep.src_mac = net::MacAddress::from_host_id(30);
  ep.dst_mac = net::MacAddress::from_host_id(40);
  net::VpgHeader vh;
  vh.vpg_id = 7;
  vh.seq = 1;
  vh.orig_protocol = 6;
  vh.payload_len = 16;
  std::vector<std::uint8_t> payload(net::VpgHeader::kSize + vh.payload_len);
  vh.write(std::span(payload).first<net::VpgHeader::kSize>());
  const auto frame = net::build_ipv4_frame(ep, net::IpProtocol::kVpg, payload);
  auto view = net::FrameView::parse(frame);
  ASSERT_TRUE(view && view->vpg);

  const auto lin = rs.match(*view);
  const auto cm = cc.match(*view);
  EXPECT_EQ(cm.result.action, RuleAction::kVpg);
  EXPECT_EQ(cm.result.vpg_id, 7u);
  EXPECT_EQ(cm.result.rules_traversed, lin.rules_traversed);
  EXPECT_EQ(cm.result.matched_index, lin.matched_index);
  EXPECT_EQ(cm.nodes, 1);  // id lookup is a single decision node
}

TEST(CompiledClassifier, RandomCrossCheckAgainstLinear) {
  sim::Random rng(0xc1a551f1eeULL);
  for (int round = 0; round < 8; ++round) {
    RuleSet rs;
    const int n_rules = static_cast<int>(1 + rng.uniform(32));
    for (int i = 0; i < n_rules; ++i) {
      Rule r;
      const auto kind = rng.uniform(8);
      r.action = kind == 0  ? RuleAction::kVpg
                 : kind < 4 ? RuleAction::kDeny
                            : RuleAction::kAllow;
      if (r.action == RuleAction::kVpg) r.vpg_id = 1 + static_cast<std::uint32_t>(rng.uniform(4));
      if (rng.bernoulli(0.5)) r.protocol = rng.bernoulli(0.5) ? 6 : 17;
      if (rng.bernoulli(0.6)) {
        r.src_net = net::Ipv4Address(10, 0, static_cast<std::uint8_t>(rng.uniform(4)),
                                     static_cast<std::uint8_t>(rng.uniform(32)));
        r.src_prefix = static_cast<int>(8 + rng.uniform(25));
      }
      if (rng.bernoulli(0.6)) {
        r.dst_net = net::Ipv4Address(10, 0, static_cast<std::uint8_t>(rng.uniform(4)),
                                     static_cast<std::uint8_t>(rng.uniform(32)));
        r.dst_prefix = static_cast<int>(8 + rng.uniform(25));
      }
      if (rng.bernoulli(0.4)) {
        const auto lo = static_cast<std::uint16_t>(rng.uniform(1000));
        r.dst_ports = PortRange{lo, static_cast<std::uint16_t>(lo + rng.uniform(100))};
      }
      r.bidirectional = rng.bernoulli(0.5);
      rs.add(r);
    }
    rs.set_default_action(rng.bernoulli(0.5) ? RuleAction::kAllow : RuleAction::kDeny);
    CompiledClassifier cc;
    cc.rebuild(rs);

    for (int i = 0; i < 500; ++i) {
      net::FiveTuple t;
      t.src = net::Ipv4Address(10, 0, static_cast<std::uint8_t>(rng.uniform(4)),
                               static_cast<std::uint8_t>(rng.uniform(32)));
      t.dst = net::Ipv4Address(10, 0, static_cast<std::uint8_t>(rng.uniform(4)),
                               static_cast<std::uint8_t>(rng.uniform(32)));
      t.src_port = static_cast<std::uint16_t>(rng.uniform(1200));
      t.dst_port = static_cast<std::uint16_t>(rng.uniform(1200));
      t.protocol = rng.bernoulli(0.5) ? 6 : 17;
      expect_same(rs, cc, t);
    }
  }
}

TEST(CompiledClassifier, RebuildReplacesStructure) {
  RuleSet first;
  first.add(allow_to_port(80));
  first.set_default_action(RuleAction::kDeny);
  CompiledClassifier cc;
  cc.rebuild(first);
  EXPECT_EQ(cc.match(tcp_tuple(1, 2, 80)).result.action, RuleAction::kAllow);
  EXPECT_EQ(cc.stats().rebuilds, 1u);
  EXPECT_EQ(cc.stats().rules, 1u);

  RuleSet second;
  Rule deny80;
  deny80.action = RuleAction::kDeny;
  deny80.dst_ports = PortRange{80, 80};
  second.add(deny80);
  second.set_default_action(RuleAction::kAllow);
  cc.rebuild(second);
  EXPECT_EQ(cc.match(tcp_tuple(1, 2, 80)).result.action, RuleAction::kDeny);
  EXPECT_EQ(cc.match(tcp_tuple(1, 2, 81)).result.action, RuleAction::kAllow);
  EXPECT_EQ(cc.stats().rebuilds, 2u);
  EXPECT_GT(cc.stats().memory_bytes, 0u);
}

TEST(CompiledClassifier, NodesGrowSubLinearlyWithDepth) {
  // The counterfactual claim in one assert: deepening the rule-set 64x
  // (64 -> 4096) must grow lookup nodes by far less than 64x.
  auto nodes_at = [](int depth) {
    RuleSet rs;
    for (int i = 0; i < depth - 1; ++i) {
      Rule r;
      r.action = RuleAction::kDeny;
      r.protocol = 17;
      r.dst_ports = PortRange{static_cast<std::uint16_t>(10000 + i),
                              static_cast<std::uint16_t>(10000 + i)};
      r.bidirectional = false;
      rs.add(r);
    }
    rs.add(allow_to_port(80));
    CompiledClassifier cc;
    cc.rebuild(rs);
    return cc.match(tcp_tuple(1, 2, 80)).nodes;
  };
  const int shallow = nodes_at(64);
  const int deep = nodes_at(4096);
  EXPECT_LT(deep, shallow * 16);
  EXPECT_LT(deep, 4096 / 4);
}

TEST(CompiledClassifier, NicInstallRebuildsAndReportsStats) {
  sim::Simulation sim(1);
  FirewallNic nic(sim, net::MacAddress::from_host_id(40), "test/adf", adf_profile(),
                  MatchBackend::kCompiled);
  EXPECT_EQ(nic.matcher().backend(), MatchBackend::kCompiled);

  RuleSet rs;
  rs.add(allow_to_port(80));
  nic.install_rule_set(rs);
  ASSERT_NE(nic.matcher().compiled(), nullptr);
  EXPECT_EQ(nic.matcher().compiled()->stats().rules, 1u);
  EXPECT_GE(nic.matcher().stats().rebuilds, 1u);
}

}  // namespace
}  // namespace barb::firewall
