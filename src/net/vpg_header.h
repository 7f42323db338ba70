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
#include <span>

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

  // Stores the wire bytes; the reserved byte is always written as zero.
  // VPG frames authenticate these bytes as AAD.
  void write(std::span<std::uint8_t, kSize> out) const {
    store_be32(out.data(), vpg_id);
    store_be64(out.data() + 4, seq);
    store_be32(out.data() + 12, std::uint32_t{orig_protocol} << 24 | payload_len);
  }

  std::array<std::uint8_t, kSize> to_bytes() const {
    std::array<std::uint8_t, kSize> b;
    write(b);
    return b;
  }

  void read(std::span<const std::uint8_t, kSize> in) {
    vpg_id = load_be32(in.data());
    seq = load_be64(in.data() + 4);
    orig_protocol = in[12];
    payload_len = load_be16(in.data() + 14);
  }
};

}  // namespace barb::net
