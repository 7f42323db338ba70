// TCP header (RFC 793) with optional MSS option (the only option our stack
// negotiates, matching paper-era Linux 2.4 behaviour at 100 Mbps where window
// scaling is not the bottleneck).
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "util/byte_io.h"

namespace barb::net {

struct TcpFlags {
  static constexpr std::uint8_t kFin = 0x01;
  static constexpr std::uint8_t kSyn = 0x02;
  static constexpr std::uint8_t kRst = 0x04;
  static constexpr std::uint8_t kPsh = 0x08;
  static constexpr std::uint8_t kAck = 0x10;
};

// Wire layout: src_port(2) | dst_port(2) | seq(4) | ack(4) |
// data_offset<<4(1) | flags(1) | window(2) | checksum(2) | urgent(2), then
// options up to the data offset. The writer emits MSS (kind 2, length 4) as
// the only option.
struct TcpHeader {
  static constexpr std::size_t kMinSize = 20;

  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint32_t seq = 0;
  std::uint32_t ack = 0;
  std::uint8_t flags = 0;
  std::uint16_t window = 0;
  std::uint16_t checksum = 0;  // filled in by the builder
  std::uint16_t urgent = 0;
  std::optional<std::uint16_t> mss;  // MSS option, SYN segments only

  bool syn() const { return flags & TcpFlags::kSyn; }
  bool ack_flag() const { return flags & TcpFlags::kAck; }
  bool fin() const { return flags & TcpFlags::kFin; }
  bool rst() const { return flags & TcpFlags::kRst; }
  bool psh() const { return flags & TcpFlags::kPsh; }

  std::size_t size() const { return kMinSize + (mss ? 4 : 0); }

  // Stores the header, size() bytes, at the front of `out`, a 32-bit word
  // at a time.
  void write(std::span<std::uint8_t> out) const {
    std::uint8_t* p = out.first<kMinSize>().data();
    const std::uint32_t data_offset_words = static_cast<std::uint32_t>(size() / 4);
    store_be32(p, std::uint32_t{src_port} << 16 | dst_port);
    store_be32(p + 4, seq);
    store_be32(p + 8, ack);
    store_be32(p + 12, data_offset_words << 28 | std::uint32_t{flags} << 16 | window);
    store_be32(p + 16, std::uint32_t{checksum} << 16 | urgent);
    if (mss) {
      // Kind 2 (MSS), length 4.
      store_be32(out.subspan<kMinSize, 4>().data(), 0x0204u << 16 | *mss);
    }
  }

  // Stores the checksum field of a header already in `out`.
  static void write_checksum(std::span<std::uint8_t, kMinSize> out, std::uint16_t sum) {
    store_be16(out.data() + 16, sum);
  }

  // The data offset in bytes: the fixed header plus its options.
  static std::size_t header_length(std::span<const std::uint8_t, kMinSize> in) {
    return static_cast<std::size_t>(in[12] >> 4) * 4;
  }

  // Loads the header at the front of `segment` into this one (which must be
  // default-constructed): the fixed 20 bytes by direct loads, then the
  // options (MSS is the one kept). False when the segment is shorter than
  // 20 bytes, the data offset is under 20 bytes or past the segment, or an
  // option is malformed; on success the payload starts at header_length().
  bool read(std::span<const std::uint8_t> segment) {
    if (segment.size() < kMinSize) return false;
    const auto fixed = segment.first<kMinSize>();
    const std::size_t header_len = header_length(fixed);
    if (header_len < kMinSize || header_len > segment.size()) return false;
    const std::uint8_t* p = fixed.data();
    src_port = load_be16(p);
    dst_port = load_be16(p + 2);
    seq = load_be32(p + 4);
    ack = load_be32(p + 8);
    flags = p[13] & 0x3f;
    window = load_be16(p + 14);
    checksum = load_be16(p + 16);
    urgent = load_be16(p + 18);

    const auto options = segment.subspan(kMinSize, header_len - kMinSize);
    std::size_t i = 0;
    while (i < options.size()) {
      const std::uint8_t kind = options[i++];
      if (kind == 0) break;     // end of options
      if (kind == 1) continue;  // NOP
      if (i == options.size()) return false;
      const std::uint8_t len = options[i++];
      if (len < 2 || static_cast<std::size_t>(len - 2) > options.size() - i) return false;
      if (kind == 2 && len == 4) mss = load_be16(&options[i]);
      i += static_cast<std::size_t>(len - 2);
    }
    return true;
  }
};

}  // namespace barb::net
