#include "crypto/poly1305.h"

#include <cstring>

#include "util/byte_io.h"

namespace barb::crypto {

namespace {

using u64 = std::uint64_t;
using u128 = unsigned __int128;

constexpr u64 kMask44 = 0xfffffffffff;
constexpr u64 kMask42 = 0x3ffffffffff;

}  // namespace

Poly1305::Poly1305(const Key& key) {
  // r is clamped per the RFC; stored as 44/44/42-bit limbs.
  const u64 t0 = load_le64(key.data()), t1 = load_le64(key.data() + 8);
  r_[0] = t0 & 0xffc0fffffff;
  r_[1] = ((t0 >> 44) | (t1 << 20)) & 0xfffffc0ffff;
  r_[2] = (t1 >> 24) & 0x00ffffffc0f;
  pad_[0] = load_le64(key.data() + 16);
  pad_[1] = load_le64(key.data() + 24);
}

void Poly1305::process_blocks(const std::uint8_t* m, std::size_t nblocks, u64 hibit) {
  const u64 r0 = r_[0], r1 = r_[1], r2 = r_[2];
  // 2^130 = 5 (mod p), and the limbs above 2^130 are shifted by 2 bits.
  const u64 s1 = r1 * (5 << 2), s2 = r2 * (5 << 2);
  u64 h0 = h_[0], h1 = h_[1], h2 = h_[2];

  for (; nblocks > 0; --nblocks, m += 16) {
    const u64 t0 = load_le64(m), t1 = load_le64(m + 8);
    h0 += t0 & kMask44;
    h1 += ((t0 >> 44) | (t1 << 20)) & kMask44;
    h2 += ((t1 >> 24) & kMask42) | hibit;

    const u128 d0 = static_cast<u128>(h0) * r0 + static_cast<u128>(h1) * s2 +
                    static_cast<u128>(h2) * s1;
    u128 d1 = static_cast<u128>(h0) * r1 + static_cast<u128>(h1) * r0 +
              static_cast<u128>(h2) * s2;
    u128 d2 = static_cast<u128>(h0) * r2 + static_cast<u128>(h1) * r1 +
              static_cast<u128>(h2) * r0;

    u64 c = static_cast<u64>(d0 >> 44);
    h0 = static_cast<u64>(d0) & kMask44;
    d1 += c;
    c = static_cast<u64>(d1 >> 44);
    h1 = static_cast<u64>(d1) & kMask44;
    d2 += c;
    c = static_cast<u64>(d2 >> 42);
    h2 = static_cast<u64>(d2) & kMask42;
    h0 += c * 5;
    c = h0 >> 44;
    h0 &= kMask44;
    h1 += c;
  }

  h_[0] = h0; h_[1] = h1; h_[2] = h2;
}

void Poly1305::update(std::span<const std::uint8_t> data) {
  constexpr u64 kHibit = u64{1} << 40;  // 2^128 in the top limb
  if (data.empty()) return;
  std::size_t offset = 0;
  if (buffer_len_ > 0) {
    const std::size_t take = std::min(std::size_t{16} - buffer_len_, data.size());
    std::memcpy(buffer_.data() + buffer_len_, data.data(), take);
    buffer_len_ += take;
    offset = take;
    if (buffer_len_ == 16) {
      process_blocks(buffer_.data(), 1, kHibit);
      buffer_len_ = 0;
    }
  }
  const std::size_t nblocks = (data.size() - offset) / 16;
  process_blocks(data.data() + offset, nblocks, kHibit);
  offset += 16 * nblocks;
  if (offset < data.size()) {
    buffer_len_ = data.size() - offset;
    std::memcpy(buffer_.data(), data.data() + offset, buffer_len_);
  }
}

Poly1305::Tag Poly1305::finalize() {
  if (buffer_len_ > 0) {
    // Final partial block: append 0x01 then zero-pad; high bit not set.
    std::uint8_t block[16] = {};
    std::memcpy(block, buffer_.data(), buffer_len_);
    block[buffer_len_] = 1;
    process_blocks(block, 1, 0);
    buffer_len_ = 0;
  }

  // Full carry propagation.
  u64 h0 = h_[0], h1 = h_[1], h2 = h_[2];
  u64 c;
  c = h1 >> 44; h1 &= kMask44;
  h2 += c; c = h2 >> 42; h2 &= kMask42;
  h0 += c * 5; c = h0 >> 44; h0 &= kMask44;
  h1 += c; c = h1 >> 44; h1 &= kMask44;
  h2 += c; c = h2 >> 42; h2 &= kMask42;
  h0 += c * 5; c = h0 >> 44; h0 &= kMask44;
  h1 += c;

  // Compute h + -p and select it if h >= p.
  u64 g0 = h0 + 5; c = g0 >> 44; g0 &= kMask44;
  u64 g1 = h1 + c; c = g1 >> 44; g1 &= kMask44;
  u64 g2 = h2 + c - (u64{1} << 42);

  const u64 mask = (g2 >> 63) - 1;  // all-ones if h >= p
  h0 = (h0 & ~mask) | (g0 & mask);
  h1 = (h1 & ~mask) | (g1 & mask);
  h2 = (h2 & ~mask) | (g2 & mask);

  // tag = (h + pad) mod 2^128 in little-endian.
  const u64 t0 = pad_[0], t1 = pad_[1];
  h0 += t0 & kMask44; c = h0 >> 44; h0 &= kMask44;
  h1 += (((t0 >> 44) | (t1 << 20)) & kMask44) + c; c = h1 >> 44; h1 &= kMask44;
  h2 += ((t1 >> 24) & kMask42) + c; h2 &= kMask42;

  Tag tag;
  store_le64(tag.data(), h0 | (h1 << 44));
  store_le64(tag.data() + 8, (h1 >> 20) | (h2 << 24));
  return tag;
}

}  // namespace barb::crypto
