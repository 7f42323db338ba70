// IPv4 header (RFC 791), no options.
#pragma once

#include <cstdint>
#include <span>

#include "net/checksum.h"
#include "net/ipv4_address.h"
#include "util/byte_io.h"

namespace barb::net {

// IP protocol numbers carried by the simulated network. kVpg is the
// encapsulation protocol for ADF virtual private groups (an unassigned
// experimental number, matching how the real ADF tunnels traffic).
enum class IpProtocol : std::uint8_t {
  kIcmp = 1,
  kTcp = 6,
  kUdp = 17,
  kVpg = 250,
};

// Wire layout: version/IHL(1) | tos(1) | total_length(2) | id(2) |
// flags/fragment(2) | ttl(1) | protocol(1) | checksum(2) | src(4) | dst(4).
struct Ipv4Header {
  static constexpr std::size_t kSize = 20;
  static constexpr std::uint8_t kDefaultTtl = 64;

  std::uint8_t tos = 0;
  std::uint16_t total_length = 0;  // header + payload
  std::uint16_t identification = 0;
  bool dont_fragment = true;
  std::uint8_t ttl = kDefaultTtl;
  std::uint8_t protocol = 0;
  Ipv4Address src;
  Ipv4Address dst;

  // Stores the header a 32-bit word at a time, then its checksum computed
  // over the words just stored.
  void write(std::span<std::uint8_t, kSize> out) const {
    std::uint8_t* p = out.data();
    store_be32(p, 0x45u << 24 | std::uint32_t{tos} << 16 | total_length);  // version 4, IHL 5
    store_be32(p + 4, std::uint32_t{identification} << 16 | (dont_fragment ? 0x4000u : 0u));
    store_be32(p + 8, std::uint32_t{ttl} << 24 | std::uint32_t{protocol} << 16);  // checksum 0
    store_be32(p + 12, src.value());
    store_be32(p + 16, dst.value());
    store_be16(p + 10, internet_checksum(out));
  }

  // Loads the header into this one after verifying its checksum; false
  // (fields untouched) on a bad checksum, options or fragments (the
  // simulated stacks produce neither).
  bool read(std::span<const std::uint8_t, kSize> in) {
    const std::uint8_t* p = in.data();
    if (internet_checksum(in) != 0 || p[0] != 0x45) return false;
    const std::uint16_t flags_frag = load_be16(p + 6);
    if ((flags_frag & 0x3fff) != 0) return false;  // fragments unsupported
    tos = p[1];
    total_length = load_be16(p + 2);
    identification = load_be16(p + 4);
    dont_fragment = (flags_frag & 0x4000) != 0;
    ttl = p[8];
    protocol = p[9];
    src = Ipv4Address(load_be32(p + 12));
    dst = Ipv4Address(load_be32(p + 16));
    return true;
  }
};

}  // namespace barb::net
