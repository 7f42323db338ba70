#include "firewall/vpg.h"

#include <gtest/gtest.h>

#include <string>

#include "net/packet.h"
#include "net/packet_builder.h"
#include "util/byte_io.h"

namespace barb::firewall {
namespace {

std::vector<std::uint8_t> master_key(std::uint8_t fill = 0x11) {
  return std::vector<std::uint8_t>(32, fill);
}

std::vector<std::uint8_t> make_udp_frame(const std::string& payload_text) {
  net::IpEndpoints ep;
  ep.src_ip = net::Ipv4Address(10, 0, 0, 30);
  ep.dst_ip = net::Ipv4Address(10, 0, 0, 40);
  ep.src_mac = net::MacAddress::from_host_id(30);
  ep.dst_mac = net::MacAddress::from_host_id(40);
  std::vector<std::uint8_t> payload(payload_text.begin(), payload_text.end());
  return net::build_udp_frame(ep, 5000, 5001, payload);
}

TEST(Vpg, EncapDecapRoundTrip) {
  VpgTable sender, receiver;
  sender.install(7, master_key());
  receiver.install(7, master_key());

  auto frame = make_udp_frame("secret datagram");
  const auto original = frame;
  ASSERT_TRUE(sender.encapsulate(7, frame));

  // On the wire the frame is protocol 250 and the payload is unreadable.
  auto view = net::FrameView::parse(frame);
  ASSERT_TRUE(view && view->ip);
  EXPECT_EQ(view->ip->protocol, 250);
  ASSERT_TRUE(view->vpg);
  EXPECT_EQ(view->vpg->vpg_id, 7u);
  EXPECT_EQ(view->vpg->orig_protocol, 17);
  const std::string wire(frame.begin(), frame.end());
  EXPECT_EQ(wire.find("secret datagram"), std::string::npos);

  ASSERT_TRUE(receiver.decapsulate(frame));
  // Restored frame parses back to the original UDP packet.
  auto restored = net::FrameView::parse(frame);
  ASSERT_TRUE(restored && restored->udp);
  EXPECT_EQ(restored->udp->dst_port, 5001);
  EXPECT_EQ(std::string(restored->l4_payload.begin(), restored->l4_payload.end()),
            "secret datagram");
  EXPECT_EQ(frame, original);
}

TEST(Vpg, DifferentKeysFailAuthentication) {
  VpgTable sender, receiver;
  sender.install(7, master_key(0x11));
  receiver.install(7, master_key(0x22));

  auto frame = make_udp_frame("x");
  ASSERT_TRUE(sender.encapsulate(7, frame));
  EXPECT_FALSE(receiver.decapsulate(frame));
  EXPECT_EQ(receiver.stats().auth_failures, 1u);
}

TEST(Vpg, TamperedFrameRejected) {
  VpgTable sender, receiver;
  sender.install(7, master_key());
  receiver.install(7, master_key());

  auto frame = make_udp_frame("payload");
  ASSERT_TRUE(sender.encapsulate(7, frame));
  frame[frame.size() - 3] ^= 0x01;  // flip a ciphertext/tag bit
  EXPECT_FALSE(receiver.decapsulate(frame));
  EXPECT_EQ(receiver.stats().auth_failures, 1u);
}

TEST(Vpg, HeaderTamperRejected) {
  VpgTable sender, receiver;
  sender.install(7, master_key());
  receiver.install(9, master_key());  // receiver knows a different group

  auto frame = make_udp_frame("payload");
  ASSERT_TRUE(sender.encapsulate(7, frame));
  // Rewriting the vpg id to 9 must fail: the header is authenticated (AAD)
  // and the nonce binds the id.
  frame[net::EthernetHeader::kSize + net::Ipv4Header::kSize + 3] = 9;
  EXPECT_FALSE(receiver.decapsulate(frame));
}

TEST(Vpg, UnknownGroupRejected) {
  VpgTable sender, receiver;
  sender.install(7, master_key());
  auto frame = make_udp_frame("x");
  ASSERT_TRUE(sender.encapsulate(7, frame));
  EXPECT_FALSE(receiver.decapsulate(frame));
  EXPECT_EQ(receiver.stats().unknown_vpg, 1u);
  EXPECT_FALSE(sender.encapsulate(42, frame));
  EXPECT_EQ(sender.stats().unknown_vpg, 1u);
}

TEST(Vpg, ReplayedFrameDropped) {
  VpgTable sender, receiver;
  sender.install(7, master_key());
  receiver.install(7, master_key());

  auto frame = make_udp_frame("once");
  ASSERT_TRUE(sender.encapsulate(7, frame));
  auto replay = frame;
  ASSERT_TRUE(receiver.decapsulate(frame));
  EXPECT_FALSE(receiver.decapsulate(replay));
  EXPECT_EQ(receiver.stats().replays_dropped, 1u);
}

TEST(Vpg, OutOfOrderWithinWindowAccepted) {
  VpgTable sender, receiver;
  sender.install(7, master_key());
  receiver.install(7, master_key());

  // Seal three frames (seq 1, 2, 3), deliver 3 first, then 1 and 2.
  std::vector<std::vector<std::uint8_t>> frames;
  for (int i = 0; i < 3; ++i) {
    auto f = make_udp_frame("frame " + std::to_string(i));
    EXPECT_TRUE(sender.encapsulate(7, f));
    frames.push_back(std::move(f));
  }
  EXPECT_TRUE(receiver.decapsulate(frames[2]));
  EXPECT_TRUE(receiver.decapsulate(frames[0]));
  EXPECT_TRUE(receiver.decapsulate(frames[1]));
  EXPECT_EQ(receiver.stats().decapsulated, 3u);
}

TEST(Vpg, AncientSequenceOutsideWindowDropped) {
  VpgTable sender, receiver;
  sender.install(7, master_key());
  receiver.install(7, master_key());

  auto old_frame = make_udp_frame("old");
  ASSERT_TRUE(sender.encapsulate(7, old_frame));  // seq 1
  // Advance the sender far beyond the 64-entry replay window.
  for (int i = 0; i < 100; ++i) {
    auto f = make_udp_frame("fill");
    ASSERT_TRUE(sender.encapsulate(7, f));
    ASSERT_TRUE(receiver.decapsulate(f));
  }
  EXPECT_FALSE(receiver.decapsulate(old_frame));
  EXPECT_EQ(receiver.stats().replays_dropped, 1u);
}

TEST(Vpg, OversizedFrameRefused) {
  VpgTable sender;
  sender.install(7, master_key());
  // A maximum-size frame has no headroom for the 32-byte encapsulation.
  net::IpEndpoints ep;
  ep.src_ip = net::Ipv4Address(10, 0, 0, 30);
  ep.dst_ip = net::Ipv4Address(10, 0, 0, 40);
  ep.src_mac = net::MacAddress::from_host_id(30);
  ep.dst_mac = net::MacAddress::from_host_id(40);
  std::vector<std::uint8_t> payload(
      net::kEthernetMtu - net::Ipv4Header::kSize - net::UdpHeader::kSize, 0x5a);
  auto frame = net::build_udp_frame(ep, 1, 2, payload);
  EXPECT_FALSE(sender.encapsulate(7, frame));
}

TEST(Vpg, SequenceNumbersAdvancePerFrame) {
  VpgTable sender;
  sender.install(7, master_key());
  std::uint64_t last_seq = 0;
  for (int i = 0; i < 5; ++i) {
    auto frame = make_udp_frame("x");
    ASSERT_TRUE(sender.encapsulate(7, frame));
    auto view = net::FrameView::parse(frame);
    ASSERT_TRUE(view && view->vpg);
    EXPECT_EQ(view->vpg->seq, last_seq + 1);
    last_seq = view->vpg->seq;
  }
}

TEST(Vpg, ReinstallResetsGroupState) {
  VpgTable sender, receiver;
  sender.install(7, master_key());
  receiver.install(7, master_key());
  auto f1 = make_udp_frame("a");
  ASSERT_TRUE(sender.encapsulate(7, f1));
  ASSERT_TRUE(receiver.decapsulate(f1));

  // Re-keying the group resets sequence/replay state.
  sender.install(7, master_key(0x33));
  receiver.install(7, master_key(0x33));
  auto f2 = make_udp_frame("b");
  ASSERT_TRUE(sender.encapsulate(7, f2));
  EXPECT_TRUE(receiver.decapsulate(f2));
}

TEST(Vpg, RemoveForgetsGroup) {
  VpgTable table;
  table.install(7, master_key());
  EXPECT_TRUE(table.has(7));
  table.remove(7);
  EXPECT_FALSE(table.has(7));
  auto frame = make_udp_frame("x");
  EXPECT_FALSE(table.encapsulate(7, frame));
}

// A fixed TCP frame sealed under a fixed master key. Any change to the
// checksum, ChaCha20, Poly1305 or the in-place encapsulation that moves a
// byte fails here. The vector and Packet forms must write the same bytes,
// and decapsulation must restore the original frame.
TEST(VpgTable, EncapsulatedFrameBytesArePinned) {
  net::IpEndpoints ep;
  ep.src_ip = net::Ipv4Address(10, 0, 0, 30);
  ep.dst_ip = net::Ipv4Address(10, 0, 0, 40);
  ep.src_mac = net::MacAddress::from_host_id(30);
  ep.dst_mac = net::MacAddress::from_host_id(40);
  net::TcpHeader tcp;
  tcp.src_port = 40000;
  tcp.dst_port = 80;
  tcp.seq = 0x01020304;
  tcp.ack = 0x0a0b0c0d;
  tcp.flags = net::TcpFlags::kAck | net::TcpFlags::kPsh;
  tcp.window = 65535;
  // 270 bytes of plaintext: four full keystream blocks and a partial fifth.
  std::vector<std::uint8_t> payload(250);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 7 + 3);
  }
  const auto frame = net::build_tcp_frame(ep, tcp, payload, 0x1234);
  ASSERT_EQ(to_hex(frame),
            "02000000002802000000001e080045000122123440004006135d0a00001e0a00"
            "00289c400050010203040a0b0c0d5018ffff5beb0000030a11181f262d343b42"
            "4950575e656c737a81888f969da4abb2b9c0c7ced5dce3eaf1f8ff060d141b22"
            "2930373e454c535a61686f767d848b9299a0a7aeb5bcc3cad1d8dfe6edf4fb02"
            "0910171e252c333a41484f565d646b727980878e959ca3aab1b8bfc6cdd4dbe2"
            "e9f0f7fe050c131a21282f363d444b525960676e757c838a91989fa6adb4bbc2"
            "c9d0d7dee5ecf3fa01080f161d242b323940474e555c636a71787f868d949ba2"
            "a9b0b7bec5ccd3dae1e8eff6fd040b121920272e353c434a51585f666d747b82"
            "8990979ea5acb3bac1c8cfd6dde4ebf2f900070e151c232a31383f464d545b62"
            "6970777e858c939aa1a8afb6bdc4cbd2");
  std::vector<std::uint8_t> key(32);
  for (std::size_t i = 0; i < key.size(); ++i) key[i] = static_cast<std::uint8_t>(0xa0 + i);
  const std::string sealed_hex =
      "02000000002802000000001e0800450001421234400040fa12490a00001e0a00"
      "00280000000700000000000000010600011e4e1b42532a65e12050a40ce50f5c"
      "055bcbdcf7e7b0d3a1ea8d16a32683ec86bd9034d24edf8e28c01c7decafbeed"
      "b71c929e09ba50085fd52500c76b3491b00f9811cbddfacf96f29fc193280844"
      "2554f3007319eff81bf705db8680b6cf8625c1601a0f0aa3847c5dda24d6c832"
      "cdd33f7a4d5f9e0a9bc08dbc75386850cae1ed30ed618da55f06117335ecf4e2"
      "5caa42f45f2dd9fd4bc528d7d45691f1a314be6e3004c147fe43b923e488eb5f"
      "f2f4b20858011868cb9d6afd4739ce231e7a30e944eb9b514614c17607186d68"
      "08d92d3cca21c47d99326d24affda3ec21e3b9f37f79719432b607867f16e25d"
      "aae0143ece57fef8a3e7f0aaab8f9480c55929cb0680428c62db852d85170274"
      "6b8fb6ac8e8a69e55a685700cd72f421";

  VpgTable vector_sender, packet_sender, receiver;
  vector_sender.install(7, key);
  packet_sender.install(7, key);
  receiver.install(7, key);

  auto sealed = frame;
  ASSERT_TRUE(vector_sender.encapsulate(7, sealed));
  EXPECT_EQ(to_hex(sealed), sealed_hex);
  net::Packet pkt(frame, sim::TimePoint::origin(), 1);
  ASSERT_TRUE(packet_sender.encapsulate(7, pkt));
  EXPECT_EQ(to_hex(pkt.bytes()), sealed_hex);

  ASSERT_TRUE(receiver.decapsulate(sealed));
  EXPECT_EQ(sealed, frame);
  // The same sequence number again is a replay; a second receiver opens the
  // Packet form.
  VpgTable packet_receiver;
  packet_receiver.install(7, key);
  ASSERT_TRUE(packet_receiver.decapsulate(pkt));
  EXPECT_EQ(pkt.copy_bytes(), frame);
}

}  // namespace
}  // namespace barb::firewall
