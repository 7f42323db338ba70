// Robustness: the frame parser is the first code to touch attacker-supplied
// bytes, so it must never misbehave on garbage.
#include <gtest/gtest.h>

#include "net/frame_view.h"
#include "net/packet_builder.h"
#include "sim/random.h"

namespace barb::net {
namespace {

TEST(FrameFuzz, RandomBytesNeverCrashTheParser) {
  sim::Random rng(2024);
  for (int trial = 0; trial < 5000; ++trial) {
    std::vector<std::uint8_t> bytes(rng.uniform(200));
    for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.next_u64());
    auto view = FrameView::parse(bytes);
    if (view && view->ip) {
      // If the parser accepted an IP layer, its invariants must hold.
      EXPECT_GE(view->ip->total_length, Ipv4Header::kSize);
      EXPECT_LE(view->l3_payload.size() + Ipv4Header::kSize, bytes.size());
    }
  }
}

TEST(FrameFuzz, TruncatedValidFramesNeverCrash) {
  IpEndpoints ep;
  ep.src_ip = Ipv4Address(10, 0, 0, 1);
  ep.dst_ip = Ipv4Address(10, 0, 0, 2);
  ep.src_mac = MacAddress::from_host_id(1);
  ep.dst_mac = MacAddress::from_host_id(2);
  TcpHeader tcp;
  tcp.src_port = 1;
  tcp.dst_port = 2;
  tcp.flags = TcpFlags::kSyn;
  tcp.mss = 1460;
  const std::vector<std::uint8_t> payload(100, 0x5a);
  const auto frame = build_tcp_frame(ep, tcp, payload);

  for (std::size_t len = 0; len <= frame.size(); ++len) {
    auto view = FrameView::parse(std::span(frame).first(len));
    if (len >= frame.size()) {
      ASSERT_TRUE(view && view->tcp);
    }
  }
}

TEST(FrameFuzz, BitFlippedValidFramesNeverCrash) {
  sim::Random rng(7);
  IpEndpoints ep;
  ep.src_ip = Ipv4Address(10, 0, 0, 1);
  ep.dst_ip = Ipv4Address(10, 0, 0, 2);
  ep.src_mac = MacAddress::from_host_id(1);
  ep.dst_mac = MacAddress::from_host_id(2);
  const std::vector<std::uint8_t> payload(64, 0xaa);
  const auto frame = build_udp_frame(ep, 1000, 2000, payload);

  for (int trial = 0; trial < 2000; ++trial) {
    auto mutated = frame;
    const int flips = 1 + static_cast<int>(rng.uniform(4));
    for (int i = 0; i < flips; ++i) {
      mutated[rng.uniform(mutated.size())] ^=
          static_cast<std::uint8_t>(1u << rng.uniform(8));
    }
    auto view = FrameView::parse(mutated);
    if (view && view->udp) {
      EXPECT_LE(view->l4_payload.size(), mutated.size());
    }
  }
}

TEST(FrameFuzz, VpgLengthFieldCannotOverrun) {
  // Craft a VPG frame whose payload_len claims more than is present.
  IpEndpoints ep;
  ep.src_ip = Ipv4Address(10, 0, 0, 1);
  ep.dst_ip = Ipv4Address(10, 0, 0, 2);
  ep.src_mac = MacAddress::from_host_id(1);
  ep.dst_mac = MacAddress::from_host_id(2);
  VpgHeader vh;
  vh.vpg_id = 1;
  vh.seq = 1;
  vh.payload_len = 60000;  // lies
  std::vector<std::uint8_t> payload(VpgHeader::kSize + 8);
  vh.write(std::span(payload).first<VpgHeader::kSize>());
  const auto frame = build_ipv4_frame(ep, IpProtocol::kVpg, payload);
  auto view = FrameView::parse(frame);
  ASSERT_TRUE(view.has_value());
  // Either no VPG layer, or a payload bounded by the actual bytes.
  if (view->vpg) {
    EXPECT_LE(view->l4_payload.size(), frame.size());
  } else {
    EXPECT_TRUE(view->l4_payload.empty());
  }
}

}  // namespace
}  // namespace barb::net
