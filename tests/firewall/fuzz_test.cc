// Robustness of the attacker-facing firewall surfaces: the policy parser
// (fed from the distribution channel), the VPG decapsulator (fed from the
// wire), and the policy-protocol reader (fed from TCP).
#include <gtest/gtest.h>

#include <string>

#include "firewall/policy.h"
#include "firewall/policy_protocol.h"
#include "firewall/vpg.h"
#include "net/packet_builder.h"
#include "sim/random.h"

namespace barb::firewall {
namespace {

TEST(PolicyFuzz, RandomTextNeverCrashes) {
  sim::Random rng(99);
  const char alphabet[] = "abcdefghijklmnopqrstuvwxyz0123456789./- #\n\t";
  for (int trial = 0; trial < 2000; ++trial) {
    std::string text;
    const std::size_t len = rng.uniform(200);
    for (std::size_t i = 0; i < len; ++i) {
      text.push_back(alphabet[rng.uniform(sizeof(alphabet) - 1)]);
    }
    const auto result = parse_policy(text);
    // Must return a definitive verdict, never both or neither.
    EXPECT_NE(result.rule_set.has_value(), result.error.has_value());
  }
}

TEST(PolicyFuzz, MutatedValidPoliciesAlwaysTerminate) {
  sim::Random rng(100);
  const std::string base =
      "default deny\n"
      "allow tcp from 10.1.0.0/16 port 1024-65535 to 10.0.0.40 port 80\n"
      "vpg 7 between 10.0.0.30 and 10.0.0.40\n"
      "deny udp from any to any oneway\n";
  for (int trial = 0; trial < 2000; ++trial) {
    std::string text = base;
    const int edits = 1 + static_cast<int>(rng.uniform(5));
    for (int i = 0; i < edits; ++i) {
      text[rng.uniform(text.size())] =
          static_cast<char>(32 + rng.uniform(95));
    }
    const auto result = parse_policy(text);
    if (result.ok()) {
      // Whatever parsed must serialize and re-parse to itself.
      const auto again = parse_policy(result.rule_set->to_string());
      ASSERT_TRUE(again.ok());
      EXPECT_EQ(again.rule_set->to_string(), result.rule_set->to_string());
    } else {
      EXPECT_GT(result.error->line, 0);
    }
  }
}

TEST(VpgFuzz, RandomFramesNeverAuthenticate) {
  VpgTable table;
  table.install(7, std::vector<std::uint8_t>(32, 0x11));
  sim::Random rng(101);

  net::IpEndpoints ep;
  ep.src_ip = net::Ipv4Address(10, 0, 0, 30);
  ep.dst_ip = net::Ipv4Address(10, 0, 0, 40);
  ep.src_mac = net::MacAddress::from_host_id(30);
  ep.dst_mac = net::MacAddress::from_host_id(40);

  int accepted = 0;
  for (int trial = 0; trial < 1000; ++trial) {
    // A structurally plausible VPG frame with random sealed bytes.
    net::VpgHeader vh;
    vh.vpg_id = 7;
    vh.seq = rng.next_u64();
    vh.orig_protocol = 17;
    const std::size_t sealed = 16 + rng.uniform(200);
    vh.payload_len = static_cast<std::uint16_t>(sealed);
    std::vector<std::uint8_t> payload(net::VpgHeader::kSize + sealed);
    vh.write(std::span(payload).first<net::VpgHeader::kSize>());
    for (std::size_t i = net::VpgHeader::kSize; i < payload.size(); ++i) {
      payload[i] = static_cast<std::uint8_t>(rng.next_u64());
    }
    auto frame = net::build_ipv4_frame(ep, net::IpProtocol::kVpg, payload);
    if (table.decapsulate(frame)) ++accepted;
  }
  EXPECT_EQ(accepted, 0);  // forging a Poly1305 tag should not happen
  EXPECT_EQ(table.stats().auth_failures, 1000u);
}

TEST(ProtocolFuzz, RandomStreamsNeverYieldMessages) {
  sim::Random rng(102);
  const std::vector<std::uint8_t> key(32, 0x5c);
  for (int trial = 0; trial < 500; ++trial) {
    PolicyMessageReader reader;
    std::vector<std::uint8_t> garbage(20 + rng.uniform(300));
    for (auto& b : garbage) b = static_cast<std::uint8_t>(rng.next_u64());
    reader.append(garbage);
    EXPECT_FALSE(reader.next(key).has_value());
  }
}

TEST(ProtocolFuzz, BitFlippedMessagesNeverYieldForgedContent) {
  sim::Random rng(103);
  const std::vector<std::uint8_t> key(32, 0x5c);
  PolicyMessage msg{PolicyMsgType::kPolicyUpdate, 1,
                    "version 9\ndefault allow\n"};
  const auto bytes = encode_policy_message(msg, key);
  for (int trial = 0; trial < 2000; ++trial) {
    auto bad = bytes;
    const int flips = 1 + static_cast<int>(rng.uniform(6));
    for (int i = 0; i < flips; ++i) {
      bad[rng.uniform(bad.size())] ^= static_cast<std::uint8_t>(1u << rng.uniform(8));
    }
    if (bad == bytes) continue;  // flips cancelled out
    PolicyMessageReader reader;
    reader.append(bad);
    EXPECT_FALSE(reader.next(key).has_value());
  }
}

}  // namespace
}  // namespace barb::firewall
