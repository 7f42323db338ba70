// Receive-side checksum verification: a frame whose transport payload was
// mangled in flight must be dropped by the host stack and counted in
// nic.rx_checksum_drops — never delivered to a socket or answered.
#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "link/tracer.h"
#include "net/packet.h"
#include "net/packet_builder.h"
#include "net/tcp_header.h"
#include "stack/host.h"
#include "stack/tcp.h"
#include "stack/udp.h"
#include "testutil/fixtures.h"

namespace barb::stack {
namespace {

constexpr std::size_t kEthIp = 14 + 20;  // payload offsets into the frame
constexpr std::size_t kUdpPayloadOff = kEthIp + 8;
constexpr std::size_t kTcpPayloadOff = kEthIp + 20;
constexpr std::size_t kIcmpPayloadOff = kEthIp + 8;

struct RxChecksum : ::testing::Test {
  RxChecksum() : sim(7), net(sim) {}

  net::IpEndpoints a_to_b() const {
    net::IpEndpoints ep;
    ep.src_ip = net.a->ip();
    ep.dst_ip = net.b->ip();
    ep.src_mac = net.a->mac();
    ep.dst_mac = net.b->mac();
    return ep;
  }

  // Injects the frame directly into b's NIC, as the wire would.
  void inject(std::vector<std::uint8_t> frame) {
    net.b->nic().deliver(net::Packet{std::move(frame), sim.now(), next_id_++});
  }

  sim::Simulation sim;
  testutil::TwoHosts net;
  std::uint64_t next_id_ = 1;
};

TEST_F(RxChecksum, CorruptUdpPayloadIsDroppedAndCounted) {
  std::size_t delivered = 0;
  UdpSocket* sock = net.b->udp_open(9000);
  sock->set_receiver([&](net::Ipv4Address, std::uint16_t,
                         std::span<const std::uint8_t>) { ++delivered; });

  const std::vector<std::uint8_t> payload(64, 0xab);
  auto frame = net::build_udp_frame(a_to_b(), 1234, 9000, payload);
  frame[kUdpPayloadOff] ^= 0x01;  // hand-flip one payload bit
  inject(std::move(frame));
  sim.run();

  EXPECT_EQ(delivered, 0u);
  EXPECT_EQ(net.b->nic().stats().rx_checksum_drops, 1u);
  EXPECT_EQ(net.b->stats().icmp_unreachable_sent, 0u);  // no response either

  // The intact twin is delivered and does not touch the counter.
  inject(net::build_udp_frame(a_to_b(), 1234, 9000, payload));
  sim.run();
  EXPECT_EQ(delivered, 1u);
  EXPECT_EQ(net.b->nic().stats().rx_checksum_drops, 1u);
}

TEST_F(RxChecksum, CorruptTcpPayloadIsDroppedAndCounted) {
  bool accepted = false;
  net.b->tcp_listen(5001, [&](std::shared_ptr<TcpConnection>) { accepted = true; });

  net::TcpHeader syn;
  syn.src_port = 4321;
  syn.dst_port = 5001;
  syn.seq = 100;
  syn.flags = net::TcpFlags::kSyn;
  const std::vector<std::uint8_t> payload(32, 0x11);
  auto frame = net::build_tcp_frame(a_to_b(), syn, payload);
  frame[kTcpPayloadOff] ^= 0x80;
  inject(std::move(frame));
  sim.run();

  EXPECT_FALSE(accepted);
  EXPECT_EQ(net.b->nic().stats().rx_checksum_drops, 1u);
  EXPECT_EQ(net.b->stats().tcp_rst_sent, 0u);  // dropped before TCP saw it
}

TEST_F(RxChecksum, CorruptIcmpEchoGetsNoReply) {
  const std::vector<std::uint8_t> payload(48, 0x5a);
  auto frame = net::build_icmp_frame(a_to_b(), 8 /*echo request*/, 0, 0x00010001,
                                     payload);
  frame[kIcmpPayloadOff + 4] ^= 0x01;
  inject(std::move(frame));
  sim.run();

  EXPECT_EQ(net.b->stats().icmp_echo_replies, 0u);
  EXPECT_EQ(net.b->nic().stats().rx_checksum_drops, 1u);
}

TEST_F(RxChecksum, UdpChecksumZeroMeansNotComputedAndIsAccepted) {
  // RFC 768: an all-zero UDP checksum field disables verification.
  const std::vector<std::uint8_t> payload(64, 0xcd);
  auto frame = net::build_udp_frame(a_to_b(), 1234, 9000, payload);
  frame[kEthIp + 6] = 0;  // zero the checksum field...
  frame[kEthIp + 7] = 0;
  frame[kUdpPayloadOff] ^= 0xff;  // ...then mangle the payload

  std::size_t delivered = 0;
  UdpSocket* sock = net.b->udp_open(9000);
  sock->set_receiver([&](net::Ipv4Address, std::uint16_t,
                         std::span<const std::uint8_t>) { ++delivered; });
  inject(std::move(frame));
  sim.run();

  EXPECT_EQ(delivered, 1u);  // accepted despite the mangling
  EXPECT_EQ(net.b->nic().stats().rx_checksum_drops, 0u);
}

TEST_F(RxChecksum, UdpChecksumComputingToZeroIsSentAsAllOnes) {
  // This datagram's checksum computes to zero, which the field cannot carry
  // (zero means "not computed"), so RFC 768 sends it as 0xffff. It must
  // still protect the payload.
  const std::vector<std::uint8_t> payload = {0x11, 0x11, 0x11, 0x11,
                                             0x11, 0x11, 0xac, 0xe0};
  const auto frame = net::build_udp_frame(a_to_b(), 1000, 2000, payload);
  EXPECT_EQ(frame[kEthIp + 6], 0xff);
  EXPECT_EQ(frame[kEthIp + 7], 0xff);

  std::size_t delivered = 0;
  UdpSocket* sock = net.b->udp_open(2000);
  sock->set_receiver([&](net::Ipv4Address, std::uint16_t,
                         std::span<const std::uint8_t>) { ++delivered; });
  inject(frame);
  sim.run();
  EXPECT_EQ(delivered, 1u);
  EXPECT_EQ(net.b->nic().stats().rx_checksum_drops, 0u);

  auto flipped = frame;
  flipped[kUdpPayloadOff] ^= 0x01;
  inject(std::move(flipped));
  sim.run();
  EXPECT_EQ(delivered, 1u);
  EXPECT_EQ(net.b->nic().stats().rx_checksum_drops, 1u);

  // A socket send goes through the same writer: the wire carries 0xffff.
  link::FrameTap tap(net.link.b().sink());
  net.link.b().connect_sink(&tap);
  UdpSocket* sender = net.a->udp_open(1000);
  ASSERT_TRUE(sender->send_to(net.b->ip(), 2000, payload));
  sim.run();
  ASSERT_EQ(tap.frames().size(), 1u);
  EXPECT_EQ(tap.frames()[0].data[kEthIp + 6], 0xff);
  EXPECT_EQ(tap.frames()[0].data[kEthIp + 7], 0xff);
  EXPECT_EQ(delivered, 2u);
  EXPECT_EQ(net.b->nic().stats().rx_checksum_drops, 1u);
}

TEST_F(RxChecksum, IntactTrafficNeverTouchesTheCounter) {
  std::size_t delivered = 0;
  UdpSocket* sock = net.b->udp_open(9000);
  sock->set_receiver([&](net::Ipv4Address, std::uint16_t,
                         std::span<const std::uint8_t>) { ++delivered; });
  const std::vector<std::uint8_t> payload(100, 0x42);
  for (int i = 0; i < 20; ++i) {
    inject(net::build_udp_frame(a_to_b(), 1234, 9000, payload));
  }
  sim.run();
  EXPECT_EQ(delivered, 20u);
  EXPECT_EQ(net.b->nic().stats().rx_checksum_drops, 0u);
}

}  // namespace
}  // namespace barb::stack
