// ChaCha20-Poly1305 AEAD (RFC 8439 construction).
//
// This is the cipher behind VPG channels: confidentiality (ChaCha20),
// integrity and sender authentication (Poly1305 under a per-VPG key).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "crypto/chacha20.h"
#include "crypto/poly1305.h"

namespace barb::crypto {

class Aead {
 public:
  static constexpr std::size_t kKeySize = ChaCha20::kKeySize;
  static constexpr std::size_t kNonceSize = ChaCha20::kNonceSize;
  static constexpr std::size_t kTagSize = Poly1305::kTagSize;

  using Key = ChaCha20::Key;
  using Nonce = ChaCha20::Nonce;
  using Tag = Poly1305::Tag;

  // Encrypts `data` in place and returns its tag. `aad` must not overlap
  // `data`.
  static Tag seal_in_place(const Key& key, const Nonce& nonce,
                           std::span<const std::uint8_t> aad, std::span<std::uint8_t> data);

  // Verifies `tag` over the ciphertext in `data` and, only if it verifies,
  // decrypts `data` in place. On failure `data` is left unchanged.
  static bool open_in_place(const Key& key, const Nonce& nonce,
                            std::span<const std::uint8_t> aad, std::span<std::uint8_t> data,
                            std::span<const std::uint8_t, kTagSize> tag);

  // Returns ciphertext || 16-byte tag.
  static std::vector<std::uint8_t> seal(const Key& key, const Nonce& nonce,
                                        std::span<const std::uint8_t> aad,
                                        std::span<const std::uint8_t> plaintext);

  // Verifies the tag and decrypts. Returns nullopt on authentication failure
  // or if `sealed` is shorter than a tag.
  static std::optional<std::vector<std::uint8_t>> open(
      const Key& key, const Nonce& nonce, std::span<const std::uint8_t> aad,
      std::span<const std::uint8_t> sealed);
};

}  // namespace barb::crypto
