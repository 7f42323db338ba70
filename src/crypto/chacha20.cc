#include "crypto/chacha20.h"

#include "util/byte_io.h"

namespace barb::crypto {

namespace {

// Four 32-bit lanes (GCC vector extensions; SSE2 on x86-64, no intrinsics).
using U32x4 = std::uint32_t __attribute__((vector_size(16)));

// The quarter round, on one word or on four lanes at once.
template <class W>
inline W rotl(W x, int n) {
  return (x << n) | (x >> (32 - n));
}

template <class W>
inline void quarter_round(W& a, W& b, W& c, W& d) {
  a += b; d ^= a; d = rotl(d, 16);
  c += d; b ^= c; b = rotl(b, 12);
  a += b; d ^= a; d = rotl(d, 8);
  c += d; b ^= c; b = rotl(b, 7);
}

// The input words of every block under one (key, nonce), RFC 8439 section
// 2.3. Word 12, the block counter, is filled in per lane by blocks4().
struct State {
  State(const ChaCha20::Key& key, const ChaCha20::Nonce& nonce) {
    w[0] = 0x61707865;
    w[1] = 0x3320646e;
    w[2] = 0x79622d32;
    w[3] = 0x6b206574;
    for (int i = 0; i < 8; ++i) w[4 + i] = load_le32(key.data() + 4 * i);
    w[12] = 0;
    for (int i = 0; i < 3; ++i) w[13 + i] = load_le32(nonce.data() + 4 * i);
  }
  std::uint32_t w[16];
};

// Keystream words of blocks counter .. counter + 3: lane j of out[i] is
// word i of block counter + j. Each lane's counter wraps mod 2^32, as a
// 32-bit counter incremented once per block does.
void blocks4(const State& state, std::uint32_t counter, U32x4 (&out)[16]) {
  const U32x4 counters = counter + U32x4{0, 1, 2, 3};
  U32x4 x[16];
  for (int i = 0; i < 16; ++i) x[i] = U32x4{} + state.w[i];
  x[12] = counters;
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
  for (int i = 0; i < 16; ++i) out[i] = x[i] + state.w[i];
  out[12] = x[12] + counters;
}

// XORs up to one block of keystream (lane `lane` of `ks`) into `data`,
// eight bytes at a time.
void xor_block(const U32x4 (&ks)[16], int lane, std::uint8_t* data, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const std::size_t w = i / 4;
    const std::uint64_t k = static_cast<std::uint64_t>(ks[w][lane]) |
                            static_cast<std::uint64_t>(ks[w + 1][lane]) << 32;
    store_le64(data + i, load_le64(data + i) ^ k);
  }
  for (; i < n; ++i) {
    data[i] ^= static_cast<std::uint8_t>(ks[i / 4][lane] >> (8 * (i % 4)));
  }
}

}  // namespace

void ChaCha20::quarter_round(std::uint32_t& a, std::uint32_t& b, std::uint32_t& c,
                             std::uint32_t& d) {
  crypto::quarter_round(a, b, c, d);
}

ChaCha20::Block ChaCha20::block(const Key& key, const Nonce& nonce,
                                std::uint32_t counter) {
  U32x4 ks[16];
  blocks4(State(key, nonce), counter, ks);
  Block out;
  for (int i = 0; i < 16; ++i) store_le32(out.data() + 4 * i, ks[i][0]);
  return out;
}

void ChaCha20::xor_stream(const Key& key, const Nonce& nonce, std::uint32_t counter,
                          std::span<std::uint8_t> data) {
  const State state(key, nonce);
  std::uint8_t* p = data.data();
  std::size_t n = data.size();
  U32x4 ks[16];
  while (n > 0) {
    blocks4(state, counter, ks);
    counter += 4;
    for (int lane = 0; lane < 4 && n > 0; ++lane) {
      const std::size_t take = n < kBlockSize ? n : kBlockSize;
      xor_block(ks, lane, p, take);
      p += take;
      n -= take;
    }
  }
}

}  // namespace barb::crypto
