// Header layouts: each struct's write() and read() round-trip, and the
// read-side checks reject what they must.
#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "net/ethernet.h"
#include "net/frame_view.h"
#include "net/icmp.h"
#include "net/ipv4.h"
#include "net/tcp_header.h"
#include "net/udp.h"
#include "net/vpg_header.h"

namespace barb::net {
namespace {

TEST(EthernetHeader, SerializeParseRoundTrip) {
  EthernetHeader h;
  h.dst = MacAddress::from_host_id(2);
  h.src = MacAddress::from_host_id(1);
  h.ethertype = static_cast<std::uint16_t>(EtherType::kIpv4);

  std::array<std::uint8_t, EthernetHeader::kSize> buf{};
  h.write(buf);
  EXPECT_EQ(buf[12], 0x08);
  EXPECT_EQ(buf[13], 0x00);

  EthernetHeader parsed;
  parsed.read(buf);
  EXPECT_EQ(parsed.dst, h.dst);
  EXPECT_EQ(parsed.src, h.src);
  EXPECT_EQ(parsed.ethertype, h.ethertype);
}

TEST(EthernetHeader, TruncatedFails) {
  // The length check belongs to the caller: FrameView::parse refuses a
  // frame shorter than the header before reading it.
  const std::vector<std::uint8_t> buf(EthernetHeader::kSize - 1, 0);
  EXPECT_FALSE(FrameView::parse(buf).has_value());
}

TEST(Ipv4Header, SerializeParseRoundTrip) {
  Ipv4Header h;
  h.tos = 0x10;
  h.total_length = 120;
  h.identification = 0xbeef;
  h.ttl = 17;
  h.protocol = static_cast<std::uint8_t>(IpProtocol::kTcp);
  h.src = Ipv4Address(10, 0, 0, 1);
  h.dst = Ipv4Address(10, 0, 0, 2);

  std::array<std::uint8_t, Ipv4Header::kSize> buf{};
  h.write(buf);
  EXPECT_EQ(buf[0], 0x45);
  EXPECT_EQ(internet_checksum(buf), 0);

  Ipv4Header parsed;
  ASSERT_TRUE(parsed.read(buf));
  EXPECT_EQ(parsed.tos, h.tos);
  EXPECT_EQ(parsed.total_length, h.total_length);
  EXPECT_EQ(parsed.identification, h.identification);
  EXPECT_TRUE(parsed.dont_fragment);
  EXPECT_EQ(parsed.ttl, h.ttl);
  EXPECT_EQ(parsed.protocol, h.protocol);
  EXPECT_EQ(parsed.src, h.src);
  EXPECT_EQ(parsed.dst, h.dst);
}

TEST(Ipv4Header, CorruptedChecksumRejected) {
  Ipv4Header h;
  h.total_length = 40;
  h.protocol = 6;
  h.src = Ipv4Address(1, 2, 3, 4);
  h.dst = Ipv4Address(5, 6, 7, 8);
  std::array<std::uint8_t, Ipv4Header::kSize> buf{};
  h.write(buf);
  for (std::size_t i = 0; i < buf.size(); ++i) {
    auto bad = buf;
    bad[i] ^= 0x40;
    // Either the checksum fails or (byte 0) the version/IHL check fails.
    Ipv4Header parsed;
    EXPECT_FALSE(parsed.read(bad)) << "byte " << i;
  }
}

TEST(UdpHeader, SerializeParseRoundTrip) {
  UdpHeader h;
  h.src_port = 5001;
  h.dst_port = 80;
  h.length = 100;
  h.checksum = 0x1234;
  std::array<std::uint8_t, UdpHeader::kSize> buf{};
  h.write(buf);
  UdpHeader parsed;
  parsed.read(buf);
  EXPECT_EQ(parsed.src_port, 5001);
  EXPECT_EQ(parsed.dst_port, 80);
  EXPECT_EQ(parsed.length, 100);
  EXPECT_EQ(parsed.checksum, 0x1234);

  UdpHeader::write_checksum(buf, 0xffff);
  parsed.read(buf);
  EXPECT_EQ(parsed.checksum, 0xffff);
  EXPECT_EQ(parsed.length, 100);
}

TEST(TcpHeader, RoundTripWithoutOptions) {
  TcpHeader h;
  h.src_port = 40000;
  h.dst_port = 80;
  h.seq = 0xdeadbeef;
  h.ack = 0x01020304;
  h.flags = TcpFlags::kAck | TcpFlags::kPsh;
  h.window = 65535;
  std::vector<std::uint8_t> buf(h.size());
  h.write(buf);
  EXPECT_EQ(buf.size(), TcpHeader::kMinSize);
  EXPECT_EQ(TcpHeader::header_length(std::span(buf).first<TcpHeader::kMinSize>()),
            TcpHeader::kMinSize);
  TcpHeader parsed;
  ASSERT_TRUE(parsed.read(buf));
  EXPECT_EQ(parsed.src_port, h.src_port);
  EXPECT_EQ(parsed.dst_port, h.dst_port);
  EXPECT_EQ(parsed.seq, h.seq);
  EXPECT_EQ(parsed.ack, h.ack);
  EXPECT_EQ(parsed.window, h.window);
  EXPECT_TRUE(parsed.ack_flag());
  EXPECT_TRUE(parsed.psh());
  EXPECT_FALSE(parsed.syn());
  EXPECT_FALSE(parsed.mss.has_value());
}

TEST(TcpHeader, RoundTripWithMssOption) {
  TcpHeader h;
  h.src_port = 1;
  h.dst_port = 2;
  h.flags = TcpFlags::kSyn;
  h.mss = 1460;
  std::vector<std::uint8_t> buf(h.size());
  h.write(buf);
  EXPECT_EQ(buf.size(), TcpHeader::kMinSize + 4);
  EXPECT_EQ(TcpHeader::header_length(std::span(buf).first<TcpHeader::kMinSize>()),
            TcpHeader::kMinSize + 4);
  TcpHeader parsed;
  ASSERT_TRUE(parsed.read(buf));
  EXPECT_TRUE(parsed.syn());
  ASSERT_TRUE(parsed.mss.has_value());
  EXPECT_EQ(*parsed.mss, 1460);

  TcpHeader::write_checksum(std::span(buf).first<TcpHeader::kMinSize>(), 0xabcd);
  TcpHeader again;
  ASSERT_TRUE(again.read(buf));
  EXPECT_EQ(again.checksum, 0xabcd);
}

TEST(TcpHeader, ParseSkipsUnknownOptions) {
  // Build a header with data offset 8 (32 bytes): NOPs, unknown(kind 8,
  // len 4), then MSS.
  std::vector<std::uint8_t> buf = {
      0x00, 0x01, 0x00, 0x02,              // ports
      0x00, 0x00, 0x00, 0x01,              // seq
      0x00, 0x00, 0x00, 0x00,              // ack
      0x80, 0x02,                          // offset 8, SYN
      0xff, 0xff, 0x00, 0x00, 0x00, 0x00,  // window, checksum, urgent
      0x01, 0x01, 0x01, 0x01,              // NOP x4
      0x08, 0x04, 0xab, 0xcd,              // unknown option
      0x02, 0x04, 0x05, 0xb4,              // MSS 1460
  };
  TcpHeader parsed;
  ASSERT_TRUE(parsed.read(buf));
  ASSERT_TRUE(parsed.mss.has_value());
  EXPECT_EQ(*parsed.mss, 1460);
}

TEST(TcpHeader, MalformedOptionLengthRejected) {
  std::vector<std::uint8_t> buf = {
      0x00, 0x01, 0x00, 0x02, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00,
      0x60, 0x02,                          // offset 6, SYN
      0xff, 0xff, 0x00, 0x00, 0x00, 0x00,
      0x02, 0x09, 0x05, 0xb4,              // MSS option claiming length 9
  };
  TcpHeader parsed;
  EXPECT_FALSE(parsed.read(buf));
}

TEST(IcmpHeader, RoundTrip) {
  IcmpHeader h;
  h.type = static_cast<std::uint8_t>(IcmpType::kDestinationUnreachable);
  h.code = kIcmpCodePortUnreachable;
  h.rest = 0x01020304;
  std::array<std::uint8_t, IcmpHeader::kSize> buf{};
  h.write(buf);
  IcmpHeader::write_checksum(buf, 0xbeef);
  IcmpHeader parsed;
  parsed.read(buf);
  EXPECT_EQ(parsed.type, h.type);
  EXPECT_EQ(parsed.code, h.code);
  EXPECT_EQ(parsed.checksum, 0xbeef);
  EXPECT_EQ(parsed.rest, h.rest);
}

TEST(VpgHeader, RoundTrip) {
  VpgHeader h;
  h.vpg_id = 42;
  h.seq = 0x123456789abcdef0ULL;
  h.orig_protocol = 6;
  h.payload_len = 1000;
  std::array<std::uint8_t, VpgHeader::kSize> buf;
  buf.fill(0xee);
  h.write(buf);
  EXPECT_EQ(buf, h.to_bytes());
  EXPECT_EQ(buf[13], 0);  // reserved
  VpgHeader parsed;
  parsed.read(buf);
  EXPECT_EQ(parsed.vpg_id, h.vpg_id);
  EXPECT_EQ(parsed.seq, h.seq);
  EXPECT_EQ(parsed.orig_protocol, h.orig_protocol);
  EXPECT_EQ(parsed.payload_len, h.payload_len);
}

}  // namespace
}  // namespace barb::net
