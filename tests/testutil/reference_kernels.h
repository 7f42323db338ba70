// Scalar reference kernels for the randomized differential tests.
//
// These are the straightforward byte-at-a-time forms of the Internet
// checksum (one 16-bit word per step), ChaCha20 (one block per call, XORed
// in byte by byte) and Poly1305 (26-bit limbs, poly1305-donna-32). The
// word-at-a-time kernels in src/ must return exactly the same bytes; the
// tests under tests/net and tests/crypto compare the two over seeded random
// inputs. Keep these simple: they are the oracle, not a second fast path.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <span>

#include "crypto/chacha20.h"
#include "crypto/poly1305.h"
#include "net/ipv4_address.h"
#include "sim/random.h"

namespace barb::testutil::reference {

// --- RFC 1071 Internet checksum -------------------------------------------

inline std::uint32_t checksum_accumulate(std::span<const std::uint8_t> data,
                                         std::uint32_t acc = 0) {
  std::size_t i = 0;
  for (; i + 1 < data.size(); i += 2) {
    acc += static_cast<std::uint32_t>(data[i]) << 8 | data[i + 1];
  }
  if (i < data.size()) acc += static_cast<std::uint32_t>(data[i]) << 8;
  return acc;
}

inline std::uint16_t checksum_finish(std::uint32_t acc) {
  while (acc >> 16) acc = (acc & 0xffff) + (acc >> 16);
  return static_cast<std::uint16_t>(~acc & 0xffff);
}

inline std::uint16_t transport_checksum(net::Ipv4Address src, net::Ipv4Address dst,
                                        std::uint8_t protocol,
                                        std::span<const std::uint8_t> segment) {
  std::uint8_t pseudo[12];
  const std::uint32_t s = src.value(), d = dst.value();
  pseudo[0] = static_cast<std::uint8_t>(s >> 24);
  pseudo[1] = static_cast<std::uint8_t>(s >> 16);
  pseudo[2] = static_cast<std::uint8_t>(s >> 8);
  pseudo[3] = static_cast<std::uint8_t>(s);
  pseudo[4] = static_cast<std::uint8_t>(d >> 24);
  pseudo[5] = static_cast<std::uint8_t>(d >> 16);
  pseudo[6] = static_cast<std::uint8_t>(d >> 8);
  pseudo[7] = static_cast<std::uint8_t>(d);
  pseudo[8] = 0;
  pseudo[9] = protocol;
  pseudo[10] = static_cast<std::uint8_t>(segment.size() >> 8);
  pseudo[11] = static_cast<std::uint8_t>(segment.size());
  std::uint32_t acc = checksum_accumulate({pseudo, sizeof(pseudo)});
  acc = checksum_accumulate(segment, acc);
  return checksum_finish(acc);
}

// --- ChaCha20 (RFC 8439) ----------------------------------------------------

namespace detail {

inline std::uint32_t rotl(std::uint32_t x, int n) { return (x << n) | (x >> (32 - n)); }

inline std::uint32_t load_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) | static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 | static_cast<std::uint32_t>(p[3]) << 24;
}

inline void store_le32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
  p[2] = static_cast<std::uint8_t>(v >> 16);
  p[3] = static_cast<std::uint8_t>(v >> 24);
}

inline void quarter_round(std::uint32_t& a, std::uint32_t& b, std::uint32_t& c,
                          std::uint32_t& d) {
  a += b; d ^= a; d = rotl(d, 16);
  c += d; b ^= c; b = rotl(b, 12);
  a += b; d ^= a; d = rotl(d, 8);
  c += d; b ^= c; b = rotl(b, 7);
}

}  // namespace detail

inline crypto::ChaCha20::Block chacha20_block(const crypto::ChaCha20::Key& key,
                                              const crypto::ChaCha20::Nonce& nonce,
                                              std::uint32_t counter) {
  using detail::load_le32;
  using detail::quarter_round;
  std::uint32_t state[16];
  state[0] = 0x61707865;
  state[1] = 0x3320646e;
  state[2] = 0x79622d32;
  state[3] = 0x6b206574;
  for (int i = 0; i < 8; ++i) state[4 + i] = load_le32(key.data() + 4 * i);
  state[12] = counter;
  for (int i = 0; i < 3; ++i) state[13 + i] = load_le32(nonce.data() + 4 * i);

  std::uint32_t x[16];
  std::memcpy(x, state, sizeof(x));
  for (int round = 0; round < 10; ++round) {
    quarter_round(x[0], x[4], x[8], x[12]);
    quarter_round(x[1], x[5], x[9], x[13]);
    quarter_round(x[2], x[6], x[10], x[14]);
    quarter_round(x[3], x[7], x[11], x[15]);
    quarter_round(x[0], x[5], x[10], x[15]);
    quarter_round(x[1], x[6], x[11], x[12]);
    quarter_round(x[2], x[7], x[8], x[13]);
    quarter_round(x[3], x[4], x[9], x[14]);
  }

  crypto::ChaCha20::Block out;
  for (int i = 0; i < 16; ++i) detail::store_le32(out.data() + 4 * i, x[i] + state[i]);
  return out;
}

inline void chacha20_xor_stream(const crypto::ChaCha20::Key& key,
                                const crypto::ChaCha20::Nonce& nonce,
                                std::uint32_t counter, std::span<std::uint8_t> data) {
  std::size_t offset = 0;
  while (offset < data.size()) {
    const auto ks = chacha20_block(key, nonce, counter++);
    const std::size_t n = std::min(crypto::ChaCha20::kBlockSize, data.size() - offset);
    for (std::size_t i = 0; i < n; ++i) data[offset + i] ^= ks[i];
    offset += n;
  }
}

// --- Poly1305 (RFC 8439), 26-bit limbs ---------------------------------------

class Poly1305 {
 public:
  using Key = crypto::Poly1305::Key;
  using Tag = crypto::Poly1305::Tag;

  explicit Poly1305(const Key& key) {
    using detail::load_le32;
    r_[0] = load_le32(key.data() + 0) & 0x3ffffff;
    r_[1] = (load_le32(key.data() + 3) >> 2) & 0x3ffff03;
    r_[2] = (load_le32(key.data() + 6) >> 4) & 0x3ffc0ff;
    r_[3] = (load_le32(key.data() + 9) >> 6) & 0x3f03fff;
    r_[4] = (load_le32(key.data() + 12) >> 8) & 0x00fffff;
    for (int i = 0; i < 4; ++i) pad_[i] = load_le32(key.data() + 16 + 4 * i);
  }

  void update(std::span<const std::uint8_t> data) {
    std::size_t offset = 0;
    if (buffer_len_ > 0) {
      const std::size_t take = std::min(std::size_t{16} - buffer_len_, data.size());
      std::memcpy(buffer_.data() + buffer_len_, data.data(), take);
      buffer_len_ += take;
      offset = take;
      if (buffer_len_ == 16) {
        process_block(buffer_.data(), std::uint32_t{1} << 24);
        buffer_len_ = 0;
      }
    }
    while (offset + 16 <= data.size()) {
      process_block(data.data() + offset, std::uint32_t{1} << 24);
      offset += 16;
    }
    if (offset < data.size()) {
      buffer_len_ = data.size() - offset;
      std::memcpy(buffer_.data(), data.data() + offset, buffer_len_);
    }
  }

  Tag finalize() {
    if (buffer_len_ > 0) {
      std::uint8_t block[16] = {};
      std::memcpy(block, buffer_.data(), buffer_len_);
      block[buffer_len_] = 1;
      process_block(block, 0);
      buffer_len_ = 0;
    }

    std::uint32_t h0 = h_[0], h1 = h_[1], h2 = h_[2], h3 = h_[3], h4 = h_[4];
    std::uint32_t c;
    c = h1 >> 26; h1 &= 0x3ffffff; h2 += c;
    c = h2 >> 26; h2 &= 0x3ffffff; h3 += c;
    c = h3 >> 26; h3 &= 0x3ffffff; h4 += c;
    c = h4 >> 26; h4 &= 0x3ffffff; h0 += c * 5;
    c = h0 >> 26; h0 &= 0x3ffffff; h1 += c;

    std::uint32_t g0 = h0 + 5; c = g0 >> 26; g0 &= 0x3ffffff;
    std::uint32_t g1 = h1 + c; c = g1 >> 26; g1 &= 0x3ffffff;
    std::uint32_t g2 = h2 + c; c = g2 >> 26; g2 &= 0x3ffffff;
    std::uint32_t g3 = h3 + c; c = g3 >> 26; g3 &= 0x3ffffff;
    std::uint32_t g4 = h4 + c - (std::uint32_t{1} << 26);

    const std::uint32_t mask = (g4 >> 31) - 1;  // all-ones if h >= p
    h0 = (h0 & ~mask) | (g0 & mask);
    h1 = (h1 & ~mask) | (g1 & mask);
    h2 = (h2 & ~mask) | (g2 & mask);
    h3 = (h3 & ~mask) | (g3 & mask);
    h4 = (h4 & ~mask) | (g4 & mask);

    const std::uint32_t t0 = h0 | (h1 << 26);
    const std::uint32_t t1 = (h1 >> 6) | (h2 << 20);
    const std::uint32_t t2 = (h2 >> 12) | (h3 << 14);
    const std::uint32_t t3 = (h3 >> 18) | (h4 << 8);

    std::uint64_t f;
    std::uint32_t out32[4];
    f = static_cast<std::uint64_t>(t0) + pad_[0];
    out32[0] = static_cast<std::uint32_t>(f);
    f = static_cast<std::uint64_t>(t1) + pad_[1] + (f >> 32);
    out32[1] = static_cast<std::uint32_t>(f);
    f = static_cast<std::uint64_t>(t2) + pad_[2] + (f >> 32);
    out32[2] = static_cast<std::uint32_t>(f);
    f = static_cast<std::uint64_t>(t3) + pad_[3] + (f >> 32);
    out32[3] = static_cast<std::uint32_t>(f);

    Tag tag;
    for (std::size_t i = 0; i < 4; ++i) detail::store_le32(tag.data() + 4 * i, out32[i]);
    return tag;
  }

  static Tag mac(const Key& key, std::span<const std::uint8_t> data) {
    Poly1305 p(key);
    p.update(data);
    return p.finalize();
  }

 private:
  void process_block(const std::uint8_t* block, std::uint32_t hibit) {
    using detail::load_le32;
    const std::uint32_t r0 = r_[0], r1 = r_[1], r2 = r_[2], r3 = r_[3], r4 = r_[4];
    const std::uint32_t s1 = r1 * 5, s2 = r2 * 5, s3 = r3 * 5, s4 = r4 * 5;

    std::uint32_t h0 = h_[0], h1 = h_[1], h2 = h_[2], h3 = h_[3], h4 = h_[4];

    h0 += load_le32(block + 0) & 0x3ffffff;
    h1 += (load_le32(block + 3) >> 2) & 0x3ffffff;
    h2 += (load_le32(block + 6) >> 4) & 0x3ffffff;
    h3 += (load_le32(block + 9) >> 6) & 0x3ffffff;
    h4 += (load_le32(block + 12) >> 8) | hibit;

    using u64 = std::uint64_t;
    u64 d0 = static_cast<u64>(h0) * r0 + static_cast<u64>(h1) * s4 +
             static_cast<u64>(h2) * s3 + static_cast<u64>(h3) * s2 +
             static_cast<u64>(h4) * s1;
    u64 d1 = static_cast<u64>(h0) * r1 + static_cast<u64>(h1) * r0 +
             static_cast<u64>(h2) * s4 + static_cast<u64>(h3) * s3 +
             static_cast<u64>(h4) * s2;
    u64 d2 = static_cast<u64>(h0) * r2 + static_cast<u64>(h1) * r1 +
             static_cast<u64>(h2) * r0 + static_cast<u64>(h3) * s4 +
             static_cast<u64>(h4) * s3;
    u64 d3 = static_cast<u64>(h0) * r3 + static_cast<u64>(h1) * r2 +
             static_cast<u64>(h2) * r1 + static_cast<u64>(h3) * r0 +
             static_cast<u64>(h4) * s4;
    u64 d4 = static_cast<u64>(h0) * r4 + static_cast<u64>(h1) * r3 +
             static_cast<u64>(h2) * r2 + static_cast<u64>(h3) * r1 +
             static_cast<u64>(h4) * r0;

    std::uint32_t c;
    c = static_cast<std::uint32_t>(d0 >> 26); h0 = static_cast<std::uint32_t>(d0) & 0x3ffffff;
    d1 += c;
    c = static_cast<std::uint32_t>(d1 >> 26); h1 = static_cast<std::uint32_t>(d1) & 0x3ffffff;
    d2 += c;
    c = static_cast<std::uint32_t>(d2 >> 26); h2 = static_cast<std::uint32_t>(d2) & 0x3ffffff;
    d3 += c;
    c = static_cast<std::uint32_t>(d3 >> 26); h3 = static_cast<std::uint32_t>(d3) & 0x3ffffff;
    d4 += c;
    c = static_cast<std::uint32_t>(d4 >> 26); h4 = static_cast<std::uint32_t>(d4) & 0x3ffffff;
    h0 += c * 5;
    c = h0 >> 26; h0 &= 0x3ffffff;
    h1 += c;

    h_[0] = h0; h_[1] = h1; h_[2] = h2; h_[3] = h3; h_[4] = h4;
  }

  std::uint32_t r_[5];
  std::uint32_t h_[5] = {};
  std::uint32_t pad_[4];
  std::array<std::uint8_t, 16> buffer_;
  std::size_t buffer_len_ = 0;
};

// --- Differential inputs -----------------------------------------------------

// Fills `data` with all-zero, all-0xff or random bytes, by `pattern` % 3.
inline void fill_pattern(sim::Random& rng, std::span<std::uint8_t> data, int pattern) {
  switch (pattern % 3) {
    case 0: std::fill(data.begin(), data.end(), std::uint8_t{0}); break;
    case 1: std::fill(data.begin(), data.end(), std::uint8_t{0xff}); break;
    default:
      for (auto& b : data) b = static_cast<std::uint8_t>(rng.next_u64());
      break;
  }
}

}  // namespace barb::testutil::reference
