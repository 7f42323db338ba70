// VPG encapsulation header.
//
// ADF virtual private groups tunnel the original transport payload inside
// IP protocol 250. Layout (cleartext header, authenticated as AAD):
//   vpg_id(4) | seq(8) | orig_protocol(1) | reserved(1) | payload_len(2)
// followed by ChaCha20-Poly1305 sealed payload (ciphertext || 16-byte tag).
// The sequence number doubles as the AEAD nonce material and gives replay
// protection at the receiver.
#pragma once

#include <array>
#include <cstdint>
#include <optional>

#include "util/byte_io.h"

namespace barb::net {

struct VpgHeader {
  static constexpr std::size_t kSize = 16;
  static constexpr std::size_t kTagSize = 16;
  // Total per-packet byte overhead of VPG encapsulation.
  static constexpr std::size_t kOverhead = kSize + kTagSize;

  std::uint32_t vpg_id = 0;
  std::uint64_t seq = 0;
  std::uint8_t orig_protocol = 0;
  std::uint16_t payload_len = 0;  // sealed payload length (incl. tag)

  // The wire bytes; the reserved byte is always written as zero. VPG frames
  // authenticate these bytes as AAD.
  std::array<std::uint8_t, kSize> to_bytes() const {
    std::array<std::uint8_t, kSize> b{};
    for (std::size_t i = 0; i < 4; ++i) b[i] = static_cast<std::uint8_t>(vpg_id >> (24 - 8 * i));
    for (std::size_t i = 0; i < 8; ++i) b[4 + i] = static_cast<std::uint8_t>(seq >> (56 - 8 * i));
    b[12] = orig_protocol;
    b[14] = static_cast<std::uint8_t>(payload_len >> 8);
    b[15] = static_cast<std::uint8_t>(payload_len);
    return b;
  }

  void serialize(ByteWriter& w) const {
    for (const std::uint8_t b : to_bytes()) w.u8(b);
  }

  static std::optional<VpgHeader> parse(ByteReader& r) {
    if (r.remaining() < kSize) return std::nullopt;
    VpgHeader h;
    h.vpg_id = r.u32();
    h.seq = r.u64();
    h.orig_protocol = r.u8();
    r.u8();
    h.payload_len = r.u16();
    return h;
  }
};

}  // namespace barb::net
