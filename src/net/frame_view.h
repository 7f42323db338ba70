// Parsed view over a full Ethernet frame.
//
// FrameView is the single parsing entry point used by switches, firewalls,
// and host stacks. Spans reference the original frame bytes; a FrameView
// must not outlive the buffer it was parsed from.
//
// The parse reads each layer with the header structs' fixed-offset loads
// after one length check per layer, and keeps every acceptance rule: the
// IPv4 header checksum, version/IHL 0x45, no fragment bits, total_length
// within the frame, the TCP data offset and options, the UDP length and the
// VPG payload_len within the IP payload.
#pragma once

#include <optional>
#include <span>

#include "net/ethernet.h"
#include "net/five_tuple.h"
#include "net/icmp.h"
#include "net/ipv4.h"
#include "net/tcp_header.h"
#include "net/udp.h"
#include "net/vpg_header.h"

namespace barb::net {

struct FrameView {
  EthernetHeader eth;
  std::optional<Ipv4Header> ip;
  std::span<const std::uint8_t> l3_payload;  // IP payload bytes

  std::optional<TcpHeader> tcp;
  std::optional<UdpHeader> udp;
  std::optional<IcmpHeader> icmp;
  std::optional<VpgHeader> vpg;
  std::span<const std::uint8_t> l4_payload;  // transport (or VPG sealed) payload

  // Parses as much as is well-formed; returns nullopt only if the Ethernet
  // header itself is truncated. A frame with a garbled IP layer still parses
  // to a FrameView with ip == nullopt, letting switches forward it anyway
  // (real switches do not validate L3).
  static std::optional<FrameView> parse(std::span<const std::uint8_t> frame);
  // The same parse into a default-constructed view, for callers that hold
  // the view elsewhere (ParsedHeaders); false when the Ethernet header is
  // truncated.
  static bool parse_into(std::span<const std::uint8_t> frame, FrameView& out);

  bool is_ipv4() const { return ip.has_value(); }

  // Flow tuple for firewall matching; transport ports are zero when absent.
  std::optional<FiveTuple> five_tuple() const {
    if (!ip) return std::nullopt;
    FiveTuple t;
    t.src = ip->src;
    t.dst = ip->dst;
    t.protocol = ip->protocol;
    if (tcp) {
      t.src_port = tcp->src_port;
      t.dst_port = tcp->dst_port;
    } else if (udp) {
      t.src_port = udp->src_port;
      t.dst_port = udp->dst_port;
    }
    return t;
  }
};

}  // namespace barb::net
