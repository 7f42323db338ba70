#include "crypto/chacha20.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "sim/random.h"
#include "testutil/reference_kernels.h"
#include "util/byte_io.h"

namespace barb::crypto {
namespace {

ChaCha20::Key test_key() {
  ChaCha20::Key key;
  for (std::size_t i = 0; i < key.size(); ++i) key[i] = static_cast<std::uint8_t>(i);
  return key;
}

// RFC 8439 section 2.1.1.
TEST(ChaCha20, QuarterRoundVector) {
  std::uint32_t a = 0x11111111, b = 0x01020304, c = 0x9b8d6f43, d = 0x01234567;
  ChaCha20::quarter_round(a, b, c, d);
  EXPECT_EQ(a, 0xea2a92f4u);
  EXPECT_EQ(b, 0xcb1cf8ceu);
  EXPECT_EQ(c, 0x4581472eu);
  EXPECT_EQ(d, 0x5881c4bbu);
}

// RFC 8439 section 2.3.2 block function test vector.
TEST(ChaCha20, BlockFunctionVector) {
  ChaCha20::Nonce nonce = {0x00, 0x00, 0x00, 0x09, 0x00, 0x00,
                           0x00, 0x4a, 0x00, 0x00, 0x00, 0x00};
  const auto block = ChaCha20::block(test_key(), nonce, 1);
  EXPECT_EQ(to_hex(block),
            "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e"
            "d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e");
}

// RFC 8439 section 2.4.2 encryption test vector, all 114 bytes: the second
// block is lane 1 of the four-lane keystream.
TEST(ChaCha20, EncryptionVectorPrefix) {
  ChaCha20::Nonce nonce = {0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
                           0x00, 0x4a, 0x00, 0x00, 0x00, 0x00};
  const std::string plaintext =
      "Ladies and Gentlemen of the class of '99: If I could offer you "
      "only one tip for the future, sunscreen would be it.";
  std::vector<std::uint8_t> data(plaintext.begin(), plaintext.end());
  ChaCha20::xor_stream(test_key(), nonce, 1, data);
  EXPECT_EQ(data.size(), plaintext.size());
  EXPECT_EQ(to_hex(data),
            "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b"
            "f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8"
            "07ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab7793736"
            "5af90bbf74a35be6b40b8eedf2785e42874d");
}

TEST(ChaCha20, XorStreamIsItsOwnInverse) {
  sim::Random rng(5);
  ChaCha20::Nonce nonce{};
  nonce[0] = 0x24;
  for (std::size_t len : {0u, 1u, 63u, 64u, 65u, 128u, 1000u, 1500u}) {
    std::vector<std::uint8_t> data(len);
    for (auto& b : data) b = static_cast<std::uint8_t>(rng.next_u64());
    const auto original = data;
    ChaCha20::xor_stream(test_key(), nonce, 7, data);
    if (len > 0) {
      EXPECT_NE(data, original) << "len=" << len;
    }
    ChaCha20::xor_stream(test_key(), nonce, 7, data);
    EXPECT_EQ(data, original) << "len=" << len;
  }
}

TEST(ChaCha20, CounterAdvancesPerBlock) {
  ChaCha20::Nonce nonce{};
  // Encrypting 128 bytes starting at counter 1 must equal block(1)||block(2).
  std::vector<std::uint8_t> zeros(128, 0);
  ChaCha20::xor_stream(test_key(), nonce, 1, zeros);
  const auto b1 = ChaCha20::block(test_key(), nonce, 1);
  const auto b2 = ChaCha20::block(test_key(), nonce, 2);
  EXPECT_TRUE(std::memcmp(zeros.data(), b1.data(), 64) == 0);
  EXPECT_TRUE(std::memcmp(zeros.data() + 64, b2.data(), 64) == 0);
}

// xor_stream over zeros is the keystream, so it must equal consecutive
// block() outputs; counters near 2^32 wrap inside one four-block batch.
TEST(ChaCha20, XorStreamMatchesBlocks) {
  ChaCha20::Nonce nonce = {0x00, 0x00, 0x00, 0x09, 0x00, 0x00,
                           0x00, 0x4a, 0x00, 0x00, 0x00, 0x00};
  for (std::uint32_t counter : {0u, 1u, 0xfffffffau, 0xfffffffeu}) {
    std::vector<std::uint8_t> zeros(9 * ChaCha20::kBlockSize + 17, 0);
    ChaCha20::xor_stream(test_key(), nonce, counter, zeros);
    for (std::uint32_t b = 0; b < 10; ++b) {
      const auto expected = ChaCha20::block(test_key(), nonce, counter + b);
      const std::size_t at = b * ChaCha20::kBlockSize;
      const std::size_t n = std::min(ChaCha20::kBlockSize, zeros.size() - at);
      EXPECT_TRUE(std::memcmp(zeros.data() + at, expected.data(), n) == 0)
          << "counter=" << counter << " block " << b;
    }
  }
}

// Seeded differential against the scalar reference: lengths 0-2048 at start
// offsets 0-7 inside a larger buffer, all-zero/all-0xff/random bytes, and
// one case in four starting at 0xfffffffc-0xffffffff so lanes wrap mid-batch.
// Bytes outside the span must stay untouched.
TEST(ChaCha20, MatchesScalarReference) {
  sim::Random rng(0xc4ac4a20);
  std::vector<std::uint8_t> got(2048 + 16), want(got.size());
  for (int trial = 0; trial < 100000; ++trial) {
    ChaCha20::Key key;
    ChaCha20::Nonce nonce;
    for (auto& b : key) b = static_cast<std::uint8_t>(rng.next_u64());
    for (auto& b : nonce) b = static_cast<std::uint8_t>(rng.next_u64());
    const std::uint32_t counter =
        trial % 4 == 0 ? 0xfffffffcu + static_cast<std::uint32_t>(rng.uniform(4))
                       : static_cast<std::uint32_t>(rng.next_u64());
    const std::size_t len = rng.uniform(2049), offset = rng.uniform(8);
    testutil::reference::fill_pattern(rng, got, trial);
    want = got;
    ChaCha20::xor_stream(key, nonce, counter, std::span(got).subspan(offset, len));
    testutil::reference::chacha20_xor_stream(key, nonce, counter,
                                             std::span(want).subspan(offset, len));
    ASSERT_EQ(got, want) << "trial " << trial << " len " << len << " counter " << counter;
    if (trial % 8 == 0) {
      ASSERT_EQ(ChaCha20::block(key, nonce, counter),
                testutil::reference::chacha20_block(key, nonce, counter))
          << "trial " << trial;
    }
  }
}

TEST(ChaCha20, DistinctNoncesDistinctKeystreams) {
  ChaCha20::Nonce n1{}, n2{};
  n2[11] = 1;
  EXPECT_NE(ChaCha20::block(test_key(), n1, 0), ChaCha20::block(test_key(), n2, 0));
}

TEST(ChaCha20, DistinctKeysDistinctKeystreams) {
  auto k2 = test_key();
  k2[31] ^= 0x80;
  ChaCha20::Nonce nonce{};
  EXPECT_NE(ChaCha20::block(test_key(), nonce, 0), ChaCha20::block(k2, nonce, 0));
}

}  // namespace
}  // namespace barb::crypto
