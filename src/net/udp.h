// UDP header (RFC 768).
#pragma once

#include <cstdint>
#include <span>

#include "util/byte_io.h"

namespace barb::net {

// Wire layout: src_port(2) | dst_port(2) | length(2) | checksum(2).
struct UdpHeader {
  static constexpr std::size_t kSize = 8;

  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint16_t length = 0;    // header + payload
  std::uint16_t checksum = 0;  // filled in by the builder

  void write(std::span<std::uint8_t, kSize> out) const {
    store_be32(out.data(), std::uint32_t{src_port} << 16 | dst_port);
    store_be32(out.data() + 4, std::uint32_t{length} << 16 | checksum);
  }

  // Stores the checksum field of a header already in `out`.
  static void write_checksum(std::span<std::uint8_t, kSize> out, std::uint16_t sum) {
    store_be16(out.data() + 6, sum);
  }

  void read(std::span<const std::uint8_t, kSize> in) {
    src_port = load_be16(in.data());
    dst_port = load_be16(in.data() + 2);
    length = load_be16(in.data() + 4);
    checksum = load_be16(in.data() + 6);
  }
};

}  // namespace barb::net
