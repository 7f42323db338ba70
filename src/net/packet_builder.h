// Frame assembly.
//
// Builders produce complete, checksummed Ethernet frames. They are used by
// the host stacks and by the flood generator (which crafts frames directly,
// like the paper's raw-socket generator).
//
// Each builder sizes its buffer once to the padded frame (the zero fill is
// the Ethernet padding), stores every header at its offset through the
// header structs' write(), copies the payload, and computes each checksum
// once over the bytes just written.
//
// The TCP, UDP and ICMP builders have two forms: the vector form allocates
// a fresh byte vector (convenient for tests and one-shot traffic), and the
// *_pooled form writes the frame straight into a recycled BufferPool buffer
// — the hot-path form used by the host stack and the flood generator, which
// performs no heap allocation once the pool is warm.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "net/ethernet.h"
#include "net/frame_buffer.h"
#include "net/ipv4.h"
#include "net/mac_address.h"
#include "net/tcp_header.h"

namespace barb::net {

struct IpEndpoints {
  Ipv4Address src_ip;
  Ipv4Address dst_ip;
  MacAddress src_mac;
  MacAddress dst_mac;
};

// Wraps an IP payload into Ethernet+IPv4, padding to the Ethernet minimum
// (tests use it to craft VPG and malformed frames).
std::vector<std::uint8_t> build_ipv4_frame(const IpEndpoints& ep, IpProtocol protocol,
                                           std::span<const std::uint8_t> ip_payload,
                                           std::uint16_t ip_id = 0,
                                           std::uint8_t ttl = Ipv4Header::kDefaultTtl);

// UDP datagram with a valid transport checksum; a checksum that computes to
// zero is sent as 0xffff (RFC 768), since zero means "not computed".
std::vector<std::uint8_t> build_udp_frame(const IpEndpoints& ep, std::uint16_t src_port,
                                          std::uint16_t dst_port,
                                          std::span<const std::uint8_t> payload,
                                          std::uint16_t ip_id = 0);
FrameBufferRef build_udp_frame_pooled(BufferPool& pool, const IpEndpoints& ep,
                                      std::uint16_t src_port, std::uint16_t dst_port,
                                      std::span<const std::uint8_t> payload,
                                      std::uint16_t ip_id = 0);

// TCP segment; `header.checksum` is computed here.
std::vector<std::uint8_t> build_tcp_frame(const IpEndpoints& ep, TcpHeader header,
                                          std::span<const std::uint8_t> payload,
                                          std::uint16_t ip_id = 0);
FrameBufferRef build_tcp_frame_pooled(BufferPool& pool, const IpEndpoints& ep,
                                      TcpHeader header,
                                      std::span<const std::uint8_t> payload,
                                      std::uint16_t ip_id = 0);

// ICMP message (type/code/rest), checksum computed here.
std::vector<std::uint8_t> build_icmp_frame(const IpEndpoints& ep, std::uint8_t type,
                                           std::uint8_t code, std::uint32_t rest,
                                           std::span<const std::uint8_t> payload,
                                           std::uint16_t ip_id = 0);
FrameBufferRef build_icmp_frame_pooled(BufferPool& pool, const IpEndpoints& ep,
                                       std::uint8_t type, std::uint8_t code,
                                       std::uint32_t rest,
                                       std::span<const std::uint8_t> payload,
                                       std::uint16_t ip_id = 0);

}  // namespace barb::net
