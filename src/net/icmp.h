// ICMP (RFC 792): echo and destination-unreachable, which is all the
// experiments exercise (port-unreachable responses to UDP floods).
#pragma once

#include <cstdint>
#include <span>

#include "util/byte_io.h"

namespace barb::net {

enum class IcmpType : std::uint8_t {
  kEchoReply = 0,
  kDestinationUnreachable = 3,
  kEchoRequest = 8,
};

constexpr std::uint8_t kIcmpCodePortUnreachable = 3;

// Wire layout: type(1) | code(1) | checksum(2) | rest(4).
struct IcmpHeader {
  static constexpr std::size_t kSize = 8;

  std::uint8_t type = 0;
  std::uint8_t code = 0;
  std::uint16_t checksum = 0;  // filled in by the builder
  std::uint32_t rest = 0;      // echo: id<<16 | seq; unreachable: unused

  void write(std::span<std::uint8_t, kSize> out) const {
    store_be32(out.data(), std::uint32_t{type} << 24 | std::uint32_t{code} << 16 | checksum);
    store_be32(out.data() + 4, rest);
  }

  // Stores the checksum field of a header already in `out`.
  static void write_checksum(std::span<std::uint8_t, kSize> out, std::uint16_t sum) {
    store_be16(out.data() + 2, sum);
  }

  void read(std::span<const std::uint8_t, kSize> in) {
    type = in[0];
    code = in[1];
    checksum = load_be16(in.data() + 2);
    rest = load_be32(in.data() + 4);
  }
};

}  // namespace barb::net
