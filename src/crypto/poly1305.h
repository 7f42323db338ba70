// Poly1305 one-time authenticator (RFC 8439).
#pragma once

#include <array>
#include <cstdint>
#include <span>

namespace barb::crypto {

class Poly1305 {
 public:
  static constexpr std::size_t kKeySize = 32;
  static constexpr std::size_t kTagSize = 16;

  using Key = std::array<std::uint8_t, kKeySize>;
  using Tag = std::array<std::uint8_t, kTagSize>;

  explicit Poly1305(const Key& key);

  void update(std::span<const std::uint8_t> data);
  Tag finalize();

  static Tag mac(const Key& key, std::span<const std::uint8_t> data) {
    Poly1305 p(key);
    p.update(data);
    return p.finalize();
  }

 private:
  // Absorbs `nblocks` 16-byte blocks; `hibit` is 2^128 in the top limb for
  // a full block and 0 for the padded final one.
  void process_blocks(const std::uint8_t* m, std::size_t nblocks, std::uint64_t hibit);

  // Three 44/44/42-bit limbs with 128-bit products (poly1305-donna-64).
  std::uint64_t r_[3];
  std::uint64_t h_[3] = {};
  std::uint64_t pad_[2];
  std::array<std::uint8_t, 16> buffer_;
  std::size_t buffer_len_ = 0;
};

}  // namespace barb::crypto
