#include "firewall/rule_set.h"

#include <gtest/gtest.h>

#include "net/packet_builder.h"

namespace barb::firewall {
namespace {

net::FiveTuple tcp_tuple(std::uint8_t src_last, std::uint8_t dst_last,
                         std::uint16_t dport) {
  net::FiveTuple t;
  t.src = net::Ipv4Address(10, 0, 0, src_last);
  t.dst = net::Ipv4Address(10, 0, 0, dst_last);
  t.src_port = 40000;
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

TEST(RuleSet, FirstMatchWins) {
  RuleSet rs;
  Rule deny80;
  deny80.action = RuleAction::kDeny;
  deny80.dst_ports = PortRange{80, 80};
  rs.add(deny80);
  rs.add(allow_to_port(80));  // shadowed by the deny above

  const auto result = rs.match(tcp_tuple(1, 2, 80));
  EXPECT_EQ(result.action, RuleAction::kDeny);
  EXPECT_EQ(result.matched_index, 0);
  EXPECT_EQ(result.rules_traversed, 1);
}

TEST(RuleSet, TraversalCountIncludesMatchingRule) {
  RuleSet rs;
  for (int i = 0; i < 7; ++i) rs.add(never_matches(i));
  rs.add(allow_to_port(80));  // depth 8

  const auto result = rs.match(tcp_tuple(1, 2, 80));
  EXPECT_EQ(result.action, RuleAction::kAllow);
  EXPECT_EQ(result.rules_traversed, 8);
  EXPECT_EQ(result.matched_index, 7);
}

TEST(RuleSet, DefaultActionCostsFullScan) {
  RuleSet rs;
  for (int i = 0; i < 5; ++i) rs.add(never_matches(i));
  rs.set_default_action(RuleAction::kDeny);

  const auto result = rs.match(tcp_tuple(1, 2, 80));
  EXPECT_EQ(result.action, RuleAction::kDeny);
  EXPECT_EQ(result.rules_traversed, 5);
  EXPECT_EQ(result.matched_index, -1);
}

TEST(RuleSet, VpgPairCountsTwoUnits) {
  RuleSet rs;
  Rule vpg;
  vpg.action = RuleAction::kVpg;
  vpg.vpg_id = 7;
  vpg.src_net = net::Ipv4Address(192, 168, 1, 1);  // non-matching selectors
  vpg.src_prefix = 32;
  rs.add(vpg);
  rs.add(allow_to_port(80));

  const auto result = rs.match(tcp_tuple(1, 2, 80));
  EXPECT_EQ(result.action, RuleAction::kAllow);
  EXPECT_EQ(result.rules_traversed, 3);  // 2 for the VPG pair + 1
  EXPECT_EQ(rs.total_cost_units(), 3);
}

TEST(RuleSet, InboundVpgFrameMatchesById) {
  RuleSet rs;
  Rule other_vpg;
  other_vpg.action = RuleAction::kVpg;
  other_vpg.vpg_id = 99;
  rs.add(other_vpg);
  Rule vpg;
  vpg.action = RuleAction::kVpg;
  vpg.vpg_id = 7;
  rs.add(vpg);

  // Build a VPG-encapsulated frame with id 7.
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
  ASSERT_TRUE(view.has_value());
  ASSERT_TRUE(view->vpg.has_value());

  const auto result = rs.match(*view);
  EXPECT_EQ(result.action, RuleAction::kVpg);
  EXPECT_EQ(result.vpg_id, 7u);
  // Traversed the non-matching VPG (2 units) plus the matching pair (2).
  EXPECT_EQ(result.rules_traversed, 4);
}

TEST(RuleSet, InboundVpgFrameDoesNotMatchPlainRules) {
  RuleSet rs;
  Rule allow_all;  // matches any cleartext tuple
  allow_all.action = RuleAction::kAllow;
  rs.add(allow_all);
  rs.set_default_action(RuleAction::kDeny);

  net::IpEndpoints ep;
  ep.src_ip = net::Ipv4Address(10, 0, 0, 30);
  ep.dst_ip = net::Ipv4Address(10, 0, 0, 40);
  ep.src_mac = net::MacAddress::from_host_id(30);
  ep.dst_mac = net::MacAddress::from_host_id(40);
  net::VpgHeader vh;
  vh.vpg_id = 5;
  vh.payload_len = 16;
  std::vector<std::uint8_t> payload(net::VpgHeader::kSize + vh.payload_len);
  vh.write(std::span(payload).first<net::VpgHeader::kSize>());
  const auto frame = net::build_ipv4_frame(ep, net::IpProtocol::kVpg, payload);
  auto view = net::FrameView::parse(frame);
  ASSERT_TRUE(view && view->vpg);

  // A VPG frame must not be admitted by a cleartext allow rule: the device
  // cannot inspect the encrypted inner selectors.
  const auto result = rs.match(*view);
  EXPECT_EQ(result.action, RuleAction::kDeny);
}

TEST(RuleSet, CleartextFrameMatchesVpgRuleBySelectors) {
  RuleSet rs;
  Rule vpg;
  vpg.action = RuleAction::kVpg;
  vpg.vpg_id = 7;
  vpg.src_net = net::Ipv4Address(10, 0, 0, 30);
  vpg.src_prefix = 32;
  vpg.dst_net = net::Ipv4Address(10, 0, 0, 40);
  vpg.dst_prefix = 32;
  rs.add(vpg);

  // Outbound cleartext traffic between the members selects the VPG.
  const auto result = rs.match(tcp_tuple(30, 40, 5001));
  EXPECT_EQ(result.action, RuleAction::kVpg);
  EXPECT_EQ(result.vpg_id, 7u);
}

TEST(RuleSet, EmptySetUsesDefault) {
  RuleSet deny_default;
  EXPECT_EQ(deny_default.match(tcp_tuple(1, 2, 80)).action, RuleAction::kDeny);
  RuleSet allow_default({}, RuleAction::kAllow);
  EXPECT_EQ(allow_default.match(tcp_tuple(1, 2, 80)).action, RuleAction::kAllow);
  EXPECT_EQ(allow_default.match(tcp_tuple(1, 2, 80)).rules_traversed, 0);
}

TEST(RuleSet, ToStringListsDefaultAndRules) {
  RuleSet rs;
  rs.set_default_action(RuleAction::kDeny);
  rs.add(allow_to_port(80));
  const auto text = rs.to_string();
  EXPECT_NE(text.find("default deny"), std::string::npos);
  EXPECT_NE(text.find("allow tcp"), std::string::npos);
}

// Parameterized: traversal cost is linear in the padding depth.
class RuleSetDepth : public ::testing::TestWithParam<int> {};

TEST_P(RuleSetDepth, TraversalLinearInDepth) {
  const int depth = GetParam();
  RuleSet rs;
  for (int i = 0; i < depth - 1; ++i) rs.add(never_matches(i));
  rs.add(allow_to_port(80));
  EXPECT_EQ(rs.match(tcp_tuple(1, 2, 80)).rules_traversed, depth);
}

INSTANTIATE_TEST_SUITE_P(Depths, RuleSetDepth, ::testing::Values(1, 2, 8, 16, 32, 64));

}  // namespace
}  // namespace barb::firewall
