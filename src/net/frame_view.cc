#include "net/frame_view.h"

namespace barb::net {

namespace {

constexpr std::size_t kIpOffset = EthernetHeader::kSize;
constexpr std::size_t kIpPayloadOffset = EthernetHeader::kSize + Ipv4Header::kSize;

}  // namespace

std::optional<FrameView> FrameView::parse(std::span<const std::uint8_t> frame) {
  std::optional<FrameView> v(std::in_place);
  if (!parse_into(frame, *v)) v.reset();
  return v;
}

// Each layer is loaded straight into its place in the view (never built
// aside and copied in), and a layer that fails its checks is disengaged.
bool FrameView::parse_into(std::span<const std::uint8_t> frame, FrameView& v) {
  if (frame.size() < EthernetHeader::kSize) return false;
  v.eth.read(frame.first<EthernetHeader::kSize>());
  if (v.eth.ethertype != static_cast<std::uint16_t>(EtherType::kIpv4)) return true;

  // The IP payload length comes from the IP header's total_length, not from
  // the frame size (frames may be padded to the Ethernet minimum).
  if (frame.size() < kIpPayloadOffset) return true;
  Ipv4Header& ip = v.ip.emplace();
  if (!ip.read(frame.subspan<kIpOffset, Ipv4Header::kSize>()) ||
      ip.total_length < Ipv4Header::kSize || frame.size() - kIpOffset < ip.total_length) {
    v.ip.reset();
    return true;
  }
  const auto l3 = frame.subspan(kIpPayloadOffset, ip.total_length - Ipv4Header::kSize);
  v.l3_payload = l3;

  switch (static_cast<IpProtocol>(ip.protocol)) {
    case IpProtocol::kTcp: {
      if (!v.tcp.emplace().read(l3)) {
        v.tcp.reset();
        break;
      }
      v.l4_payload = l3.subspan(TcpHeader::header_length(l3.first<TcpHeader::kMinSize>()));
      break;
    }
    case IpProtocol::kUdp: {
      if (l3.size() < UdpHeader::kSize) break;
      UdpHeader& udp = v.udp.emplace();
      udp.read(l3.first<UdpHeader::kSize>());
      if (udp.length < UdpHeader::kSize || udp.length > l3.size()) {
        v.udp.reset();
        break;
      }
      v.l4_payload = l3.subspan(UdpHeader::kSize, udp.length - UdpHeader::kSize);
      break;
    }
    case IpProtocol::kIcmp: {
      if (l3.size() < IcmpHeader::kSize) break;
      v.icmp.emplace().read(l3.first<IcmpHeader::kSize>());
      v.l4_payload = l3.subspan(IcmpHeader::kSize);
      break;
    }
    case IpProtocol::kVpg: {
      if (l3.size() < VpgHeader::kSize) break;
      VpgHeader& vpg = v.vpg.emplace();
      vpg.read(l3.first<VpgHeader::kSize>());
      if (vpg.payload_len > l3.size() - VpgHeader::kSize) {
        v.vpg.reset();
        break;
      }
      v.l4_payload = l3.subspan(VpgHeader::kSize, vpg.payload_len);
      break;
    }
  }
  return true;
}

}  // namespace barb::net
