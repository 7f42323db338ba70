#include "crypto/aead.h"

#include <cstring>

#include "crypto/hmac.h"

namespace barb::crypto {

namespace {

Poly1305::Key poly_key_for(const Aead::Key& key, const Aead::Nonce& nonce) {
  // The one-time Poly1305 key is the first 32 bytes of the counter-0 block.
  const auto block0 = ChaCha20::block(key, nonce, 0);
  Poly1305::Key pk;
  std::memcpy(pk.data(), block0.data(), pk.size());
  return pk;
}

Poly1305::Tag compute_tag(const Poly1305::Key& pk, std::span<const std::uint8_t> aad,
                          std::span<const std::uint8_t> ciphertext) {
  Poly1305 mac(pk);
  static constexpr std::uint8_t kZeros[16] = {};
  mac.update(aad);
  if (aad.size() % 16 != 0) mac.update({kZeros, 16 - aad.size() % 16});
  mac.update(ciphertext);
  if (ciphertext.size() % 16 != 0) mac.update({kZeros, 16 - ciphertext.size() % 16});
  std::uint8_t lengths[16];
  for (int i = 0; i < 8; ++i) {
    lengths[i] = static_cast<std::uint8_t>(static_cast<std::uint64_t>(aad.size()) >> (8 * i));
    lengths[8 + i] = static_cast<std::uint8_t>(
        static_cast<std::uint64_t>(ciphertext.size()) >> (8 * i));
  }
  mac.update({lengths, 16});
  return mac.finalize();
}

}  // namespace

Aead::Tag Aead::seal_in_place(const Key& key, const Nonce& nonce,
                              std::span<const std::uint8_t> aad,
                              std::span<std::uint8_t> data) {
  ChaCha20::xor_stream(key, nonce, 1, data);
  return compute_tag(poly_key_for(key, nonce), aad, data);
}

bool Aead::open_in_place(const Key& key, const Nonce& nonce,
                         std::span<const std::uint8_t> aad, std::span<std::uint8_t> data,
                         std::span<const std::uint8_t, kTagSize> tag) {
  const auto expected = compute_tag(poly_key_for(key, nonce), aad, data);
  if (!constant_time_equal(expected, tag)) return false;
  ChaCha20::xor_stream(key, nonce, 1, data);
  return true;
}

std::vector<std::uint8_t> Aead::seal(const Key& key, const Nonce& nonce,
                                     std::span<const std::uint8_t> aad,
                                     std::span<const std::uint8_t> plaintext) {
  std::vector<std::uint8_t> out;
  out.reserve(plaintext.size() + kTagSize);
  out.assign(plaintext.begin(), plaintext.end());
  const Tag tag = seal_in_place(key, nonce, aad, out);
  out.insert(out.end(), tag.begin(), tag.end());
  return out;
}

std::optional<std::vector<std::uint8_t>> Aead::open(
    const Key& key, const Nonce& nonce, std::span<const std::uint8_t> aad,
    std::span<const std::uint8_t> sealed) {
  if (sealed.size() < kTagSize) return std::nullopt;
  std::vector<std::uint8_t> out(sealed.begin(), sealed.end() - kTagSize);
  if (!open_in_place(key, nonce, aad, out, sealed.last<kTagSize>())) return std::nullopt;
  return out;
}

}  // namespace barb::crypto
