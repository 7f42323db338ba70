// Reference frame codec for the randomized differential tests.
//
// These are the straightforward ByteWriter/ByteReader forms of the header
// codecs, the frame builders and FrameView::parse: every field pushed or
// pulled one byte at a time through a bounds-checked cursor, each layer
// parsed into its own header object. The fixed-offset header layouts and
// in-place builders in src/net must produce and accept exactly the same
// bytes; tests/net/frame_codec_test.cc compares the two over seeded random
// frames, and the scenario fuzzer compares the two parsers on every frame
// its taps see. Keep these simple: they are the oracle, not a second fast
// path.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "net/checksum.h"
#include "net/ethernet.h"
#include "net/frame_view.h"
#include "net/icmp.h"
#include "net/ipv4.h"
#include "net/packet_builder.h"
#include "net/tcp_header.h"
#include "net/udp.h"
#include "net/vpg_header.h"
#include "util/byte_io.h"

namespace barb::testutil::reference {

// --- Header serializers -----------------------------------------------------

inline void serialize(const net::EthernetHeader& h, ByteWriter& w) {
  w.bytes(h.dst.bytes());
  w.bytes(h.src.bytes());
  w.u16(h.ethertype);
}

// Serializes with a freshly computed header checksum.
inline void serialize(const net::Ipv4Header& h, ByteWriter& w) {
  std::vector<std::uint8_t> hdr;
  ByteWriter hw(hdr);
  hw.u8(0x45);  // version 4, IHL 5
  hw.u8(h.tos);
  hw.u16(h.total_length);
  hw.u16(h.identification);
  hw.u16(h.dont_fragment ? 0x4000 : 0x0000);
  hw.u8(h.ttl);
  hw.u8(h.protocol);
  hw.u16(0);  // checksum placeholder
  hw.u32(h.src.value());
  hw.u32(h.dst.value());
  const std::uint16_t sum = net::internet_checksum(hdr);
  hdr[10] = static_cast<std::uint8_t>(sum >> 8);
  hdr[11] = static_cast<std::uint8_t>(sum);
  w.bytes(hdr);
}

inline void serialize(const net::TcpHeader& h, ByteWriter& w) {
  w.u16(h.src_port);
  w.u16(h.dst_port);
  w.u32(h.seq);
  w.u32(h.ack);
  w.u8(static_cast<std::uint8_t>(h.size() / 4 << 4));
  w.u8(h.flags);
  w.u16(h.window);
  w.u16(h.checksum);
  w.u16(h.urgent);
  if (h.mss) {
    w.u8(2);  // kind: MSS
    w.u8(4);  // length
    w.u16(*h.mss);
  }
}

inline void serialize(const net::UdpHeader& h, ByteWriter& w) {
  w.u16(h.src_port);
  w.u16(h.dst_port);
  w.u16(h.length);
  w.u16(h.checksum);
}

inline void serialize(const net::IcmpHeader& h, ByteWriter& w) {
  w.u8(h.type);
  w.u8(h.code);
  w.u16(h.checksum);
  w.u32(h.rest);
}

inline void serialize(const net::VpgHeader& h, ByteWriter& w) {
  w.u32(h.vpg_id);
  w.u64(h.seq);
  w.u8(h.orig_protocol);
  w.u8(0);  // reserved
  w.u16(h.payload_len);
}

// --- Header parsers ---------------------------------------------------------

inline std::optional<net::EthernetHeader> parse_ethernet(ByteReader& r) {
  net::EthernetHeader h;
  auto d = r.bytes(6), s = r.bytes(6);
  h.ethertype = r.u16();
  if (!r.ok()) return std::nullopt;
  std::array<std::uint8_t, 6> tmp;
  std::copy(d.begin(), d.end(), tmp.begin());
  h.dst = net::MacAddress(tmp);
  std::copy(s.begin(), s.end(), tmp.begin());
  h.src = net::MacAddress(tmp);
  return h;
}

// Verifies the header checksum; fails on options and fragments.
inline std::optional<net::Ipv4Header> parse_ipv4(ByteReader& r) {
  if (r.remaining() < net::Ipv4Header::kSize) return std::nullopt;
  std::span<const std::uint8_t> raw = r.bytes(net::Ipv4Header::kSize);
  if (net::internet_checksum(raw) != 0) return std::nullopt;
  ByteReader hr(raw);
  if (hr.u8() != 0x45) return std::nullopt;
  net::Ipv4Header h;
  h.tos = hr.u8();
  h.total_length = hr.u16();
  h.identification = hr.u16();
  const std::uint16_t flags_frag = hr.u16();
  h.dont_fragment = (flags_frag & 0x4000) != 0;
  if ((flags_frag & 0x3fff) != 0) return std::nullopt;
  h.ttl = hr.u8();
  h.protocol = hr.u8();
  hr.u16();  // checksum (verified above)
  h.src = net::Ipv4Address(hr.u32());
  h.dst = net::Ipv4Address(hr.u32());
  return h;
}

inline std::optional<net::TcpHeader> parse_tcp(ByteReader& r) {
  if (r.remaining() < net::TcpHeader::kMinSize) return std::nullopt;
  net::TcpHeader h;
  h.src_port = r.u16();
  h.dst_port = r.u16();
  h.seq = r.u32();
  h.ack = r.u32();
  const std::uint8_t offset_byte = r.u8();
  const std::size_t header_len = static_cast<std::size_t>(offset_byte >> 4) * 4;
  if (header_len < net::TcpHeader::kMinSize) return std::nullopt;
  h.flags = r.u8() & 0x3f;
  h.window = r.u16();
  h.checksum = r.u16();
  h.urgent = r.u16();
  std::size_t options_len = header_len - net::TcpHeader::kMinSize;
  if (r.remaining() < options_len) return std::nullopt;
  while (options_len > 0) {
    const std::uint8_t kind = r.u8();
    --options_len;
    if (kind == 0) {  // end of options
      r.skip(options_len);
      options_len = 0;
    } else if (kind == 1) {  // NOP
      continue;
    } else {
      if (options_len < 1) return std::nullopt;
      const std::uint8_t len = r.u8();
      --options_len;
      if (len < 2 || static_cast<std::size_t>(len - 2) > options_len) return std::nullopt;
      if (kind == 2 && len == 4) {
        h.mss = r.u16();
      } else {
        r.skip(static_cast<std::size_t>(len - 2));
      }
      options_len -= static_cast<std::size_t>(len - 2);
    }
  }
  if (!r.ok()) return std::nullopt;
  return h;
}

inline std::optional<net::UdpHeader> parse_udp(ByteReader& r) {
  if (r.remaining() < net::UdpHeader::kSize) return std::nullopt;
  net::UdpHeader h;
  h.src_port = r.u16();
  h.dst_port = r.u16();
  h.length = r.u16();
  h.checksum = r.u16();
  return h;
}

inline std::optional<net::IcmpHeader> parse_icmp(ByteReader& r) {
  if (r.remaining() < net::IcmpHeader::kSize) return std::nullopt;
  net::IcmpHeader h;
  h.type = r.u8();
  h.code = r.u8();
  h.checksum = r.u16();
  h.rest = r.u32();
  return h;
}

inline std::optional<net::VpgHeader> parse_vpg(ByteReader& r) {
  if (r.remaining() < net::VpgHeader::kSize) return std::nullopt;
  net::VpgHeader h;
  h.vpg_id = r.u32();
  h.seq = r.u64();
  h.orig_protocol = r.u8();
  r.u8();
  h.payload_len = r.u16();
  return h;
}

// --- FrameView::parse -------------------------------------------------------

inline std::optional<net::FrameView> parse_frame(std::span<const std::uint8_t> frame) {
  ByteReader r(frame);
  auto eth = parse_ethernet(r);
  if (!eth) return std::nullopt;

  net::FrameView v;
  v.eth = *eth;
  if (eth->ethertype != static_cast<std::uint16_t>(net::EtherType::kIpv4)) return v;

  // The IP payload length comes from total_length, not from the frame size
  // (frames may be padded to the Ethernet minimum).
  const std::size_t ip_start = r.position();
  auto ip = parse_ipv4(r);
  if (!ip) return v;
  if (ip->total_length < net::Ipv4Header::kSize) return v;
  const std::size_t payload_len = ip->total_length - net::Ipv4Header::kSize;
  if (frame.size() < ip_start + ip->total_length) return v;
  v.ip = *ip;
  v.l3_payload = frame.subspan(ip_start + net::Ipv4Header::kSize, payload_len);

  ByteReader lr(v.l3_payload);
  switch (static_cast<net::IpProtocol>(ip->protocol)) {
    case net::IpProtocol::kTcp: {
      auto tcp = parse_tcp(lr);
      if (tcp) {
        v.tcp = *tcp;
        v.l4_payload = lr.rest();
      }
      break;
    }
    case net::IpProtocol::kUdp: {
      auto udp = parse_udp(lr);
      if (udp && udp->length >= net::UdpHeader::kSize &&
          udp->length <= v.l3_payload.size()) {
        v.udp = *udp;
        v.l4_payload = v.l3_payload.subspan(net::UdpHeader::kSize,
                                            udp->length - net::UdpHeader::kSize);
      }
      break;
    }
    case net::IpProtocol::kIcmp: {
      auto icmp = parse_icmp(lr);
      if (icmp) {
        v.icmp = *icmp;
        v.l4_payload = lr.rest();
      }
      break;
    }
    case net::IpProtocol::kVpg: {
      auto vpg = parse_vpg(lr);
      if (vpg && vpg->payload_len <= lr.remaining()) {
        v.vpg = *vpg;
        v.l4_payload = lr.bytes(vpg->payload_len);
      }
      break;
    }
  }
  return v;
}

// --- Frame builders ---------------------------------------------------------

namespace detail {

inline void write_eth_ipv4(ByteWriter& w, const net::IpEndpoints& ep,
                           net::IpProtocol protocol, std::size_t ip_payload_len,
                           std::uint16_t ip_id, std::uint8_t ttl) {
  net::EthernetHeader eth;
  eth.dst = ep.dst_mac;
  eth.src = ep.src_mac;
  eth.ethertype = static_cast<std::uint16_t>(net::EtherType::kIpv4);
  serialize(eth, w);

  net::Ipv4Header ip;
  ip.total_length = static_cast<std::uint16_t>(net::Ipv4Header::kSize + ip_payload_len);
  ip.identification = ip_id;
  ip.ttl = ttl;
  ip.protocol = static_cast<std::uint8_t>(protocol);
  ip.src = ep.src_ip;
  ip.dst = ep.dst_ip;
  serialize(ip, w);
}

inline void pad_to_minimum(ByteWriter& w) {
  if (w.size() < net::kEthernetMinFrameNoFcs) {
    w.zeros(net::kEthernetMinFrameNoFcs - w.size());
  }
}

}  // namespace detail

inline std::vector<std::uint8_t> build_ipv4_frame(const net::IpEndpoints& ep,
                                                  net::IpProtocol protocol,
                                                  std::span<const std::uint8_t> ip_payload,
                                                  std::uint16_t ip_id = 0,
                                                  std::uint8_t ttl =
                                                      net::Ipv4Header::kDefaultTtl) {
  std::vector<std::uint8_t> frame;
  ByteWriter w(frame);
  detail::write_eth_ipv4(w, ep, protocol, ip_payload.size(), ip_id, ttl);
  w.bytes(ip_payload);
  detail::pad_to_minimum(w);
  return frame;
}

inline std::vector<std::uint8_t> build_udp_frame(const net::IpEndpoints& ep,
                                                 std::uint16_t src_port,
                                                 std::uint16_t dst_port,
                                                 std::span<const std::uint8_t> payload,
                                                 std::uint16_t ip_id = 0) {
  std::vector<std::uint8_t> frame;
  ByteWriter w(frame);
  const std::size_t seg_len = net::UdpHeader::kSize + payload.size();
  detail::write_eth_ipv4(w, ep, net::IpProtocol::kUdp, seg_len, ip_id,
                         net::Ipv4Header::kDefaultTtl);
  const std::size_t seg_off = frame.size();
  net::UdpHeader udp;
  udp.src_port = src_port;
  udp.dst_port = dst_port;
  udp.length = static_cast<std::uint16_t>(seg_len);
  serialize(udp, w);
  w.bytes(payload);
  std::uint16_t sum = net::transport_checksum(
      ep.src_ip, ep.dst_ip, static_cast<std::uint8_t>(net::IpProtocol::kUdp),
      std::span<const std::uint8_t>(frame).subspan(seg_off));
  if (sum == 0) sum = 0xffff;  // RFC 768: zero means "no checksum"
  frame[seg_off + 6] = static_cast<std::uint8_t>(sum >> 8);
  frame[seg_off + 7] = static_cast<std::uint8_t>(sum);
  detail::pad_to_minimum(w);
  return frame;
}

inline std::vector<std::uint8_t> build_tcp_frame(const net::IpEndpoints& ep,
                                                 net::TcpHeader header,
                                                 std::span<const std::uint8_t> payload,
                                                 std::uint16_t ip_id = 0) {
  std::vector<std::uint8_t> frame;
  ByteWriter w(frame);
  const std::size_t seg_len = header.size() + payload.size();
  detail::write_eth_ipv4(w, ep, net::IpProtocol::kTcp, seg_len, ip_id,
                         net::Ipv4Header::kDefaultTtl);
  const std::size_t seg_off = frame.size();
  header.checksum = 0;
  serialize(header, w);
  w.bytes(payload);
  const std::uint16_t sum = net::transport_checksum(
      ep.src_ip, ep.dst_ip, static_cast<std::uint8_t>(net::IpProtocol::kTcp),
      std::span<const std::uint8_t>(frame).subspan(seg_off));
  frame[seg_off + 16] = static_cast<std::uint8_t>(sum >> 8);
  frame[seg_off + 17] = static_cast<std::uint8_t>(sum);
  detail::pad_to_minimum(w);
  return frame;
}

inline std::vector<std::uint8_t> build_icmp_frame(const net::IpEndpoints& ep,
                                                  std::uint8_t type, std::uint8_t code,
                                                  std::uint32_t rest,
                                                  std::span<const std::uint8_t> payload,
                                                  std::uint16_t ip_id = 0) {
  std::vector<std::uint8_t> frame;
  ByteWriter w(frame);
  const std::size_t msg_len = net::IcmpHeader::kSize + payload.size();
  detail::write_eth_ipv4(w, ep, net::IpProtocol::kIcmp, msg_len, ip_id,
                         net::Ipv4Header::kDefaultTtl);
  const std::size_t msg_off = frame.size();
  net::IcmpHeader icmp;
  icmp.type = type;
  icmp.code = code;
  icmp.rest = rest;
  serialize(icmp, w);
  w.bytes(payload);
  const std::uint16_t sum =
      net::internet_checksum(std::span<const std::uint8_t>(frame).subspan(msg_off));
  frame[msg_off + 2] = static_cast<std::uint8_t>(sum >> 8);
  frame[msg_off + 3] = static_cast<std::uint8_t>(sum);
  detail::pad_to_minimum(w);
  return frame;
}

// --- Full comparison of two parses ------------------------------------------

namespace detail {

// A span's place in the frame it was parsed from: "offset+length", or
// "none" for a span that references no bytes at all.
inline std::string locate(std::span<const std::uint8_t> s,
                          std::span<const std::uint8_t> frame) {
  if (s.data() == nullptr) return "none";
  return std::to_string(s.data() - frame.data()) + "+" + std::to_string(s.size());
}

}  // namespace detail

// Describes the first field on which two parses differ; empty when they
// agree on every header field, on the presence of each optional layer, on
// where the L3 and L4 spans sit in their frames (each relative to the frame
// it was parsed from) and on five_tuple().
inline std::string view_difference(const std::optional<net::FrameView>& got,
                                   std::span<const std::uint8_t> got_frame,
                                   const std::optional<net::FrameView>& want,
                                   std::span<const std::uint8_t> want_frame) {
  auto differ = [](const char* field, auto a, auto b) -> std::string {
    if (a == b) return {};
    return std::string(field) + ": got " + std::to_string(a) + ", want " + std::to_string(b);
  };
  std::string d;
  auto check = [&d](std::string diff) {
    if (d.empty()) d = std::move(diff);
  };
  check(differ("view present", got.has_value(), want.has_value()));
  if (!d.empty() || !got) return d;
  const net::FrameView& g = *got;
  const net::FrameView& w = *want;

  check(g.eth.dst == w.eth.dst ? "" : "eth.dst");
  check(g.eth.src == w.eth.src ? "" : "eth.src");
  check(differ("eth.ethertype", g.eth.ethertype, w.eth.ethertype));

  check(differ("ip present", g.ip.has_value(), w.ip.has_value()));
  if (g.ip && w.ip) {
    check(differ("ip.tos", g.ip->tos, w.ip->tos));
    check(differ("ip.total_length", g.ip->total_length, w.ip->total_length));
    check(differ("ip.identification", g.ip->identification, w.ip->identification));
    check(differ("ip.dont_fragment", g.ip->dont_fragment, w.ip->dont_fragment));
    check(differ("ip.ttl", g.ip->ttl, w.ip->ttl));
    check(differ("ip.protocol", g.ip->protocol, w.ip->protocol));
    check(differ("ip.src", g.ip->src.value(), w.ip->src.value()));
    check(differ("ip.dst", g.ip->dst.value(), w.ip->dst.value()));
  }

  check(differ("tcp present", g.tcp.has_value(), w.tcp.has_value()));
  if (g.tcp && w.tcp) {
    check(differ("tcp.src_port", g.tcp->src_port, w.tcp->src_port));
    check(differ("tcp.dst_port", g.tcp->dst_port, w.tcp->dst_port));
    check(differ("tcp.seq", g.tcp->seq, w.tcp->seq));
    check(differ("tcp.ack", g.tcp->ack, w.tcp->ack));
    check(differ("tcp.flags", g.tcp->flags, w.tcp->flags));
    check(differ("tcp.window", g.tcp->window, w.tcp->window));
    check(differ("tcp.checksum", g.tcp->checksum, w.tcp->checksum));
    check(differ("tcp.urgent", g.tcp->urgent, w.tcp->urgent));
    check(differ("tcp.mss present", g.tcp->mss.has_value(), w.tcp->mss.has_value()));
    check(differ("tcp.mss", g.tcp->mss.value_or(0), w.tcp->mss.value_or(0)));
  }

  check(differ("udp present", g.udp.has_value(), w.udp.has_value()));
  if (g.udp && w.udp) {
    check(differ("udp.src_port", g.udp->src_port, w.udp->src_port));
    check(differ("udp.dst_port", g.udp->dst_port, w.udp->dst_port));
    check(differ("udp.length", g.udp->length, w.udp->length));
    check(differ("udp.checksum", g.udp->checksum, w.udp->checksum));
  }

  check(differ("icmp present", g.icmp.has_value(), w.icmp.has_value()));
  if (g.icmp && w.icmp) {
    check(differ("icmp.type", g.icmp->type, w.icmp->type));
    check(differ("icmp.code", g.icmp->code, w.icmp->code));
    check(differ("icmp.checksum", g.icmp->checksum, w.icmp->checksum));
    check(differ("icmp.rest", g.icmp->rest, w.icmp->rest));
  }

  check(differ("vpg present", g.vpg.has_value(), w.vpg.has_value()));
  if (g.vpg && w.vpg) {
    check(differ("vpg.vpg_id", g.vpg->vpg_id, w.vpg->vpg_id));
    check(differ("vpg.seq", g.vpg->seq, w.vpg->seq));
    check(differ("vpg.orig_protocol", g.vpg->orig_protocol, w.vpg->orig_protocol));
    check(differ("vpg.payload_len", g.vpg->payload_len, w.vpg->payload_len));
  }

  const std::string l3_got = detail::locate(g.l3_payload, got_frame);
  const std::string l3_want = detail::locate(w.l3_payload, want_frame);
  check(l3_got == l3_want ? "" : "l3_payload: got " + l3_got + ", want " + l3_want);
  const std::string l4_got = detail::locate(g.l4_payload, got_frame);
  const std::string l4_want = detail::locate(w.l4_payload, want_frame);
  check(l4_got == l4_want ? "" : "l4_payload: got " + l4_got + ", want " + l4_want);

  const auto tg = g.five_tuple(), tw = w.five_tuple();
  check(tg == tw ? "" : "five_tuple");
  return d;
}

// Both parses ran over the same bytes.
inline std::string view_difference(const std::optional<net::FrameView>& got,
                                   const std::optional<net::FrameView>& want,
                                   std::span<const std::uint8_t> frame) {
  return view_difference(got, frame, want, frame);
}

}  // namespace barb::testutil::reference
