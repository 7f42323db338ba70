#include "net/packet_builder.h"

#include <algorithm>

#include "net/checksum.h"
#include "net/icmp.h"
#include "net/udp.h"
#include "util/assert.h"

namespace barb::net {

namespace {

constexpr std::size_t kIpOffset = EthernetHeader::kSize;
constexpr std::size_t kIpPayloadOffset = EthernetHeader::kSize + Ipv4Header::kSize;

std::size_t padded_frame_size(std::size_t ip_payload_len) {
  return std::max(kIpPayloadOffset + ip_payload_len, kEthernetMinFrameNoFcs);
}

// Sizes `frame` (empty on entry) to the padded frame, whose zero fill is the
// Ethernet padding, and stores the Ethernet and IPv4 headers for
// `ip_payload_len` bytes of IP payload. Returns the IP payload's bytes.
// Shared by the vector and pooled builder forms so the two produce
// byte-identical frames.
std::span<std::uint8_t> write_eth_ipv4(std::vector<std::uint8_t>& frame,
                                       const IpEndpoints& ep, IpProtocol protocol,
                                       std::size_t ip_payload_len, std::uint16_t ip_id,
                                       std::uint8_t ttl) {
  BARB_ASSERT_MSG(ip_payload_len + Ipv4Header::kSize <= kEthernetMtu,
                  "payload exceeds MTU; fragmentation is not modeled");
  frame.resize(padded_frame_size(ip_payload_len));
  const std::span<std::uint8_t> bytes(frame);

  EthernetHeader eth;
  eth.dst = ep.dst_mac;
  eth.src = ep.src_mac;
  eth.ethertype = static_cast<std::uint16_t>(EtherType::kIpv4);
  eth.write(bytes.first<EthernetHeader::kSize>());

  Ipv4Header ip;
  ip.total_length = static_cast<std::uint16_t>(Ipv4Header::kSize + ip_payload_len);
  ip.identification = ip_id;
  ip.ttl = ttl;
  ip.protocol = static_cast<std::uint8_t>(protocol);
  ip.src = ep.src_ip;
  ip.dst = ep.dst_ip;
  ip.write(bytes.subspan<kIpOffset, Ipv4Header::kSize>());
  return bytes.subspan(kIpPayloadOffset, ip_payload_len);
}

void write_udp_frame(std::vector<std::uint8_t>& frame, const IpEndpoints& ep,
                     std::uint16_t src_port, std::uint16_t dst_port,
                     std::span<const std::uint8_t> payload, std::uint16_t ip_id) {
  const auto segment =
      write_eth_ipv4(frame, ep, IpProtocol::kUdp, UdpHeader::kSize + payload.size(),
                     ip_id, Ipv4Header::kDefaultTtl);
  UdpHeader udp;
  udp.src_port = src_port;
  udp.dst_port = dst_port;
  udp.length = static_cast<std::uint16_t>(segment.size());
  const auto header = segment.first<UdpHeader::kSize>();
  udp.write(header);
  std::copy(payload.begin(), payload.end(), segment.begin() + UdpHeader::kSize);
  // RFC 768: a computed zero goes out as all ones; zero means "no checksum".
  const std::uint16_t sum = transport_checksum(
      ep.src_ip, ep.dst_ip, static_cast<std::uint8_t>(IpProtocol::kUdp), segment);
  UdpHeader::write_checksum(header, sum == 0 ? 0xffff : sum);
}

void write_tcp_frame(std::vector<std::uint8_t>& frame, const IpEndpoints& ep,
                     TcpHeader header, std::span<const std::uint8_t> payload,
                     std::uint16_t ip_id) {
  const auto segment =
      write_eth_ipv4(frame, ep, IpProtocol::kTcp, header.size() + payload.size(), ip_id,
                     Ipv4Header::kDefaultTtl);
  header.checksum = 0;
  header.write(segment);
  std::copy(payload.begin(), payload.end(), segment.begin() + header.size());
  TcpHeader::write_checksum(
      segment.first<TcpHeader::kMinSize>(),
      transport_checksum(ep.src_ip, ep.dst_ip, static_cast<std::uint8_t>(IpProtocol::kTcp),
                         segment));
}

void write_icmp_frame(std::vector<std::uint8_t>& frame, const IpEndpoints& ep,
                      std::uint8_t type, std::uint8_t code, std::uint32_t rest,
                      std::span<const std::uint8_t> payload, std::uint16_t ip_id) {
  const auto message =
      write_eth_ipv4(frame, ep, IpProtocol::kIcmp, IcmpHeader::kSize + payload.size(),
                     ip_id, Ipv4Header::kDefaultTtl);
  IcmpHeader icmp;
  icmp.type = type;
  icmp.code = code;
  icmp.rest = rest;
  const auto header = message.first<IcmpHeader::kSize>();
  icmp.write(header);
  std::copy(payload.begin(), payload.end(), message.begin() + IcmpHeader::kSize);
  IcmpHeader::write_checksum(header, internet_checksum(message));
}

}  // namespace

std::vector<std::uint8_t> build_ipv4_frame(const IpEndpoints& ep, IpProtocol protocol,
                                           std::span<const std::uint8_t> ip_payload,
                                           std::uint16_t ip_id, std::uint8_t ttl) {
  std::vector<std::uint8_t> frame;
  const auto body = write_eth_ipv4(frame, ep, protocol, ip_payload.size(), ip_id, ttl);
  std::copy(ip_payload.begin(), ip_payload.end(), body.begin());
  return frame;
}

std::vector<std::uint8_t> build_udp_frame(const IpEndpoints& ep, std::uint16_t src_port,
                                          std::uint16_t dst_port,
                                          std::span<const std::uint8_t> payload,
                                          std::uint16_t ip_id) {
  std::vector<std::uint8_t> frame;
  write_udp_frame(frame, ep, src_port, dst_port, payload, ip_id);
  return frame;
}

FrameBufferRef build_udp_frame_pooled(BufferPool& pool, const IpEndpoints& ep,
                                      std::uint16_t src_port, std::uint16_t dst_port,
                                      std::span<const std::uint8_t> payload,
                                      std::uint16_t ip_id) {
  auto b = pool.build(padded_frame_size(UdpHeader::kSize + payload.size()));
  write_udp_frame(b.buffer(), ep, src_port, dst_port, payload, ip_id);
  return b.seal();
}

std::vector<std::uint8_t> build_tcp_frame(const IpEndpoints& ep, TcpHeader header,
                                          std::span<const std::uint8_t> payload,
                                          std::uint16_t ip_id) {
  std::vector<std::uint8_t> frame;
  write_tcp_frame(frame, ep, header, payload, ip_id);
  return frame;
}

FrameBufferRef build_tcp_frame_pooled(BufferPool& pool, const IpEndpoints& ep,
                                      TcpHeader header,
                                      std::span<const std::uint8_t> payload,
                                      std::uint16_t ip_id) {
  auto b = pool.build(padded_frame_size(header.size() + payload.size()));
  write_tcp_frame(b.buffer(), ep, header, payload, ip_id);
  return b.seal();
}

std::vector<std::uint8_t> build_icmp_frame(const IpEndpoints& ep, std::uint8_t type,
                                           std::uint8_t code, std::uint32_t rest,
                                           std::span<const std::uint8_t> payload,
                                           std::uint16_t ip_id) {
  std::vector<std::uint8_t> frame;
  write_icmp_frame(frame, ep, type, code, rest, payload, ip_id);
  return frame;
}

FrameBufferRef build_icmp_frame_pooled(BufferPool& pool, const IpEndpoints& ep,
                                       std::uint8_t type, std::uint8_t code,
                                       std::uint32_t rest,
                                       std::span<const std::uint8_t> payload,
                                       std::uint16_t ip_id) {
  auto b = pool.build(padded_frame_size(IcmpHeader::kSize + payload.size()));
  write_icmp_frame(b.buffer(), ep, type, code, rest, payload, ip_id);
  return b.seal();
}

}  // namespace barb::net
