// Seeded differential of the frame codec against the reference codec
// (tests/testutil/reference_frames.h).
//
// Builders: 100k random cases (random endpoints, ports, seq/ack, flags,
// window, MSS present or absent, IP ID, TTL, ICMP type/code/rest, payloads
// from 0 bytes to the MTU), each frame compared byte for byte with the
// reference builder, in the vector form and in the pooled form (whose
// buffers are recycled from frame to frame, so stale bytes would show);
// one case in five compares a random VPG header's write() instead.
//
// Parser: 100k parses compared with the reference parser on every field,
// the presence of each layer, the L3/L4 span offsets and lengths and the
// five-tuple, over valid frames, every truncation of small frames, 1-4 bit
// flips, random garbage, TCP data offsets 0-15 with random option bytes,
// and VPG frames whose payload_len overruns the frame.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "net/frame_view.h"
#include "net/packet_builder.h"
#include "sim/random.h"
#include "testutil/reference_frames.h"

namespace barb::net {
namespace {

namespace ref = testutil::reference;

constexpr int kCases = 100000;
constexpr std::size_t kIpOffset = EthernetHeader::kSize;
constexpr std::size_t kL4Offset = EthernetHeader::kSize + Ipv4Header::kSize;

std::uint8_t byte(sim::Random& rng) { return static_cast<std::uint8_t>(rng.next_u64()); }
std::uint16_t u16(sim::Random& rng) { return static_cast<std::uint16_t>(rng.next_u64()); }
std::uint32_t u32(sim::Random& rng) { return static_cast<std::uint32_t>(rng.next_u64()); }

std::vector<std::uint8_t> random_bytes(sim::Random& rng, std::size_t n) {
  std::vector<std::uint8_t> v(n);
  for (auto& b : v) b = byte(rng);
  return v;
}

// Half the lengths are small (the padded range), half anywhere up to `max`.
std::size_t random_length(sim::Random& rng, std::size_t max) {
  return rng.uniform(2) == 0 ? rng.uniform(std::min<std::size_t>(max, 64) + 1)
                             : rng.uniform(max + 1);
}

MacAddress random_mac(sim::Random& rng) {
  std::array<std::uint8_t, 6> b;
  for (auto& x : b) x = byte(rng);
  return MacAddress(b);
}

IpEndpoints random_endpoints(sim::Random& rng) {
  IpEndpoints ep;
  ep.src_ip = Ipv4Address(u32(rng));
  ep.dst_ip = Ipv4Address(u32(rng));
  ep.src_mac = random_mac(rng);
  ep.dst_mac = random_mac(rng);
  return ep;
}

TcpHeader random_tcp_header(sim::Random& rng) {
  TcpHeader h;
  h.src_port = u16(rng);
  h.dst_port = u16(rng);
  h.seq = u32(rng);
  h.ack = u32(rng);
  h.flags = byte(rng);
  h.window = u16(rng);
  h.checksum = u16(rng);  // the builder overwrites it
  h.urgent = u16(rng);
  if (rng.uniform(2) == 0) h.mss = u16(rng);
  return h;
}

constexpr std::size_t kMaxUdpPayload = kEthernetMtu - Ipv4Header::kSize - UdpHeader::kSize;
constexpr std::size_t kMaxIcmpPayload = kEthernetMtu - Ipv4Header::kSize - IcmpHeader::kSize;

std::vector<std::uint8_t> vpg_ip_payload(const VpgHeader& h,
                                         std::span<const std::uint8_t> sealed) {
  std::vector<std::uint8_t> out(VpgHeader::kSize);
  h.write(std::span(out).first<VpgHeader::kSize>());
  out.insert(out.end(), sealed.begin(), sealed.end());
  return out;
}

bool same_bytes(const FrameBufferRef& buf, const std::vector<std::uint8_t>& want) {
  return std::ranges::equal(buf->bytes(), want);
}

TEST(FrameCodec, BuildersMatchReferenceByteForByte) {
  sim::Random rng(1801);
  BufferPool pool;
  int udp = 0, tcp = 0, tcp_mss = 0, icmp = 0, ipv4 = 0, vpg = 0, padded = 0, full_mtu = 0;
  for (int i = 0; i < kCases; ++i) {
    SCOPED_TRACE("case " + std::to_string(i));
    const IpEndpoints ep = random_endpoints(rng);
    const std::uint16_t ip_id = u16(rng);
    std::vector<std::uint8_t> want;
    switch (rng.uniform(5)) {
      case 0: {
        const auto payload = random_bytes(rng, random_length(rng, kMaxUdpPayload));
        const std::uint16_t sp = u16(rng), dp = u16(rng);
        want = ref::build_udp_frame(ep, sp, dp, payload, ip_id);
        ASSERT_EQ(build_udp_frame(ep, sp, dp, payload, ip_id), want);
        ASSERT_TRUE(same_bytes(build_udp_frame_pooled(pool, ep, sp, dp, payload, ip_id), want));
        ++udp;
        break;
      }
      case 1: {
        const TcpHeader h = random_tcp_header(rng);
        const auto payload =
            random_bytes(rng, random_length(rng, kEthernetMtu - Ipv4Header::kSize - h.size()));
        want = ref::build_tcp_frame(ep, h, payload, ip_id);
        ASSERT_EQ(build_tcp_frame(ep, h, payload, ip_id), want);
        ASSERT_TRUE(same_bytes(build_tcp_frame_pooled(pool, ep, h, payload, ip_id), want));
        ++tcp;
        tcp_mss += h.mss.has_value();
        break;
      }
      case 2: {
        const std::uint8_t type = byte(rng), code = byte(rng);
        const std::uint32_t rest = u32(rng);
        const auto payload = random_bytes(rng, random_length(rng, kMaxIcmpPayload));
        want = ref::build_icmp_frame(ep, type, code, rest, payload, ip_id);
        ASSERT_EQ(build_icmp_frame(ep, type, code, rest, payload, ip_id), want);
        ASSERT_TRUE(same_bytes(
            build_icmp_frame_pooled(pool, ep, type, code, rest, payload, ip_id), want));
        ++icmp;
        break;
      }
      case 3: {  // the VPG header alone: no builder writes it
        VpgHeader h;
        h.vpg_id = u32(rng);
        h.seq = rng.next_u64();
        h.orig_protocol = byte(rng);
        h.payload_len = u16(rng);
        ByteWriter w(want);
        ref::serialize(h, w);
        std::vector<std::uint8_t> got(VpgHeader::kSize);
        h.write(std::span(got).first<VpgHeader::kSize>());
        ASSERT_EQ(got, want);
        ++vpg;
        continue;
      }
      default: {
        const auto protocol = static_cast<IpProtocol>(byte(rng));
        const std::uint8_t ttl = byte(rng);
        const auto payload =
            random_bytes(rng, random_length(rng, kEthernetMtu - Ipv4Header::kSize));
        want = ref::build_ipv4_frame(ep, protocol, payload, ip_id, ttl);
        ASSERT_EQ(build_ipv4_frame(ep, protocol, payload, ip_id, ttl), want);
        ++ipv4;
        break;
      }
    }
    padded += want.size() == kEthernetMinFrameNoFcs;
    full_mtu += want.size() == kEthernetMaxFrameNoFcs;
  }
  // Every builder, both TCP header sizes, padded and full-size frames ran.
  EXPECT_GT(udp, kCases / 6);
  EXPECT_GT(tcp_mss, 0);
  EXPECT_GT(tcp - tcp_mss, 0);
  EXPECT_GT(icmp, kCases / 6);
  EXPECT_GT(ipv4, kCases / 6);
  EXPECT_GT(vpg, kCases / 6);
  EXPECT_GT(padded, 0);
  EXPECT_GT(full_mtu, 0);
}

// --- Parser ------------------------------------------------------------------

// A well-formed frame of a random kind: TCP (with or without MSS), UDP,
// ICMP, VPG, another IP protocol, or a non-IP ethertype.
std::vector<std::uint8_t> random_valid_frame(sim::Random& rng, std::size_t max_payload) {
  const IpEndpoints ep = random_endpoints(rng);
  const auto payload = random_bytes(rng, random_length(rng, max_payload));
  switch (rng.uniform(6)) {
    case 0:
      return build_tcp_frame(ep, random_tcp_header(rng), payload, u16(rng));
    case 1:
      return build_udp_frame(ep, u16(rng), u16(rng), payload, u16(rng));
    case 2:
      return build_icmp_frame(ep, byte(rng), byte(rng), u32(rng), payload, u16(rng));
    case 3: {
      VpgHeader h;
      h.vpg_id = u32(rng);
      h.seq = rng.next_u64();
      h.orig_protocol = byte(rng);
      h.payload_len = static_cast<std::uint16_t>(payload.size());
      return build_ipv4_frame(ep, IpProtocol::kVpg, vpg_ip_payload(h, payload), u16(rng));
    }
    case 4:
      return build_ipv4_frame(ep, static_cast<IpProtocol>(byte(rng)), payload, u16(rng),
                              byte(rng));
    default: {
      auto frame = build_udp_frame(ep, u16(rng), u16(rng), payload, u16(rng));
      frame[12] = byte(rng);  // ethertype: almost never IPv4
      return frame;
    }
  }
}

// Recomputes the IPv4 header checksum so that a mutated frame still reaches
// the checks behind it.
void fix_ip_checksum(std::vector<std::uint8_t>& frame) {
  if (frame.size() < kL4Offset) return;
  frame[kIpOffset + 10] = 0;
  frame[kIpOffset + 11] = 0;
  const std::uint16_t sum =
      internet_checksum(std::span(frame).subspan(kIpOffset, Ipv4Header::kSize));
  frame[kIpOffset + 10] = static_cast<std::uint8_t>(sum >> 8);
  frame[kIpOffset + 11] = static_cast<std::uint8_t>(sum);
}

// What the parses accepted and refused, so the test cannot pass vacuously.
struct Coverage {
  int cases = 0;
  int no_view = 0, non_ip = 0, ip = 0, tcp = 0, tcp_mss = 0, udp = 0, icmp = 0, vpg = 0;
  int ip_without_l4 = 0;  // an IP layer whose transport header was refused

  void count(const std::optional<FrameView>& v) {
    ++cases;
    if (!v) {
      ++no_view;
      return;
    }
    if (!v->ip) {
      ++non_ip;
      return;
    }
    ++ip;
    tcp += v->tcp.has_value();
    tcp_mss += v->tcp && v->tcp->mss;
    udp += v->udp.has_value();
    icmp += v->icmp.has_value();
    vpg += v->vpg.has_value();
    ip_without_l4 += !v->tcp && !v->udp && !v->icmp && !v->vpg;
  }
};

// Parses `frame` both ways; false (after reporting) if they disagree.
bool same_parse(std::span<const std::uint8_t> frame, const char* family, Coverage& cov) {
  const auto got = FrameView::parse(frame);
  const std::string diff = ref::view_difference(got, ref::parse_frame(frame), frame);
  cov.count(got);
  if (diff.empty()) return true;
  ADD_FAILURE() << family << " frame of " << frame.size() << " bytes: " << diff
                << "\n  " << to_hex(frame);
  return false;
}

TEST(FrameCodec, ParserMatchesReferenceOnEveryFrameShape) {
  sim::Random rng(1802);
  Coverage cov;
  int tcp_offsets_seen = 0;  // bit i: data offset i was tried
  int vpg_overruns = 0;
  while (cov.cases < kCases) {
    switch (rng.uniform(6)) {
      case 0: {  // valid frames
        const auto frame = random_valid_frame(rng, kEthernetMtu - Ipv4Header::kSize - 24);
        ASSERT_TRUE(same_parse(frame, "valid", cov));
        break;
      }
      case 1: {  // every truncation of a small frame
        const auto frame = random_valid_frame(rng, 48);
        for (std::size_t len = 0; len <= frame.size(); ++len) {
          ASSERT_TRUE(same_parse(std::span(frame).first(len), "truncated", cov));
        }
        break;
      }
      case 2: {  // 1-4 bit flips, half of them behind a repaired IP checksum
        auto frame = random_valid_frame(rng, 256);
        const int flips = 1 + static_cast<int>(rng.uniform(4));
        for (int f = 0; f < flips; ++f) {
          frame[rng.uniform(frame.size())] ^= static_cast<std::uint8_t>(1u << rng.uniform(8));
        }
        if (rng.uniform(2) == 0) fix_ip_checksum(frame);
        ASSERT_TRUE(same_parse(frame, "bit-flipped", cov));
        break;
      }
      case 3: {  // garbage, half of it behind a plausible Ethernet + IPv4 header
        auto frame = random_bytes(rng, rng.uniform(200));
        if (rng.uniform(2) == 0 && frame.size() >= kL4Offset) {
          frame[12] = 0x08;
          frame[13] = 0x00;
          frame[kIpOffset] = 0x45;
          frame[kIpOffset + 6] &= 0x40;  // keep DF, clear the fragment bits
          const std::uint8_t protocols[] = {1, 6, 17, 250};
          frame[kIpOffset + 9] = protocols[rng.uniform(4)];
          const std::size_t total = rng.uniform(frame.size() - kIpOffset + 8);
          frame[kIpOffset + 2] = static_cast<std::uint8_t>(total >> 8);
          frame[kIpOffset + 3] = static_cast<std::uint8_t>(total);
          fix_ip_checksum(frame);
        }
        ASSERT_TRUE(same_parse(frame, "garbage", cov));
        break;
      }
      case 4: {  // TCP data offsets 0-15 over random option bytes
        TcpHeader h = random_tcp_header(rng);
        h.mss.reset();
        const auto payload = random_bytes(rng, rng.uniform(64));
        auto frame = build_tcp_frame(random_endpoints(rng), h, payload, u16(rng));
        const std::size_t offset_words = rng.uniform(16);
        tcp_offsets_seen |= 1 << offset_words;
        frame[kL4Offset + 12] = static_cast<std::uint8_t>(offset_words << 4 | (byte(rng) & 0x0f));
        // Option bytes drawn mostly from the kinds and lengths the walk
        // branches on: end, NOP, MSS, lengths 0-4, plus anything.
        const std::uint8_t interesting[] = {0, 1, 2, 2, 3, 4, 4, 8};
        for (std::size_t at = kL4Offset + TcpHeader::kMinSize; at < frame.size(); ++at) {
          frame[at] = rng.uniform(3) == 0 ? byte(rng) : interesting[rng.uniform(8)];
        }
        ASSERT_TRUE(same_parse(frame, "tcp-options", cov));
        break;
      }
      default: {  // VPG payload_len against the bytes actually present
        VpgHeader h;
        h.vpg_id = u32(rng);
        h.seq = rng.next_u64();
        h.orig_protocol = byte(rng);
        const auto sealed = random_bytes(rng, rng.uniform(96));
        h.payload_len = static_cast<std::uint16_t>(
            rng.uniform(2) == 0 ? sealed.size() + 1 + rng.uniform(2000) : rng.uniform(97));
        vpg_overruns += h.payload_len > sealed.size();
        const auto frame = build_ipv4_frame(random_endpoints(rng), IpProtocol::kVpg,
                                            vpg_ip_payload(h, sealed), u16(rng));
        ASSERT_TRUE(same_parse(frame, "vpg", cov));
        break;
      }
    }
  }
  EXPECT_EQ(tcp_offsets_seen, 0xffff);
  EXPECT_GT(vpg_overruns, 0);
  // Every outcome of the parse occurred: no view, non-IP, and an IP layer
  // with each transport (MSS included) or with its transport refused.
  EXPECT_GT(cov.no_view, 0);
  EXPECT_GT(cov.non_ip, 0);
  EXPECT_GT(cov.tcp, 0);
  EXPECT_GT(cov.tcp_mss, 0);
  EXPECT_GT(cov.udp, 0);
  EXPECT_GT(cov.icmp, 0);
  EXPECT_GT(cov.vpg, 0);
  EXPECT_GT(cov.ip_without_l4, 0);
}

}  // namespace
}  // namespace barb::net
