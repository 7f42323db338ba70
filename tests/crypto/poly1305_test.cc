#include "crypto/poly1305.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "sim/random.h"
#include "testutil/reference_kernels.h"
#include "util/byte_io.h"

namespace barb::crypto {
namespace {

// RFC 8439 section 2.5.2.
TEST(Poly1305, RfcVector) {
  Poly1305::Key key = {0x85, 0xd6, 0xbe, 0x78, 0x57, 0x55, 0x6d, 0x33,
                       0x7f, 0x44, 0x52, 0xfe, 0x42, 0xd5, 0x06, 0xa8,
                       0x01, 0x03, 0x80, 0x8a, 0xfb, 0x0d, 0xb2, 0xfd,
                       0x4a, 0xbf, 0xf6, 0xaf, 0x41, 0x49, 0xf5, 0x1b};
  const std::string msg = "Cryptographic Forum Research Group";
  const std::vector<std::uint8_t> data(msg.begin(), msg.end());
  EXPECT_EQ(to_hex(Poly1305::mac(key, data)), "a8061dc1305136c6c22b8baf0c0127a9");
}

TEST(Poly1305, EmptyMessageIsJustPad) {
  // With r = 0 and s = pad, the tag of any message is the pad itself; the
  // empty message exercises the no-blocks path.
  Poly1305::Key key{};
  for (int i = 16; i < 32; ++i) key[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(i);
  const auto tag = Poly1305::mac(key, {});
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(tag[static_cast<std::size_t>(i)], key[static_cast<std::size_t>(i + 16)]);
  }
}

TEST(Poly1305, StreamingSplitInvariance) {
  sim::Random rng(77);
  Poly1305::Key key;
  for (auto& b : key) b = static_cast<std::uint8_t>(rng.next_u64());
  std::vector<std::uint8_t> data(333);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next_u64());
  const auto expected = Poly1305::mac(key, data);

  for (int trial = 0; trial < 20; ++trial) {
    Poly1305 p(key);
    std::size_t pos = 0;
    while (pos < data.size()) {
      const std::size_t n =
          std::min(data.size() - pos, static_cast<std::size_t>(rng.uniform(50) + 1));
      p.update(std::span(data).subspan(pos, n));
      pos += n;
    }
    EXPECT_EQ(p.finalize(), expected);
  }
}

TEST(Poly1305, TagDependsOnEveryMessageByte) {
  sim::Random rng(88);
  Poly1305::Key key;
  for (auto& b : key) b = static_cast<std::uint8_t>(rng.next_u64());
  std::vector<std::uint8_t> data(45);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next_u64());
  const auto base = Poly1305::mac(key, data);
  for (std::size_t i = 0; i < data.size(); ++i) {
    auto mutated = data;
    mutated[i] ^= 0x01;
    EXPECT_NE(Poly1305::mac(key, mutated), base) << "byte " << i;
  }
}

TEST(Poly1305, BlockBoundaryLengths) {
  // Lengths around the 16-byte block boundary hit the partial-block path.
  Poly1305::Key key;
  for (std::size_t i = 0; i < key.size(); ++i) key[i] = static_cast<std::uint8_t>(i + 1);
  std::vector<std::uint8_t> data(64, 0xab);
  std::vector<std::string> tags;
  for (std::size_t len : {15u, 16u, 17u, 31u, 32u, 33u}) {
    tags.push_back(to_hex(Poly1305::mac(key, std::span(data).first(len))));
  }
  // All distinct (length is authenticated via the final 0x01 marker position).
  for (std::size_t i = 0; i < tags.size(); ++i) {
    for (std::size_t j = i + 1; j < tags.size(); ++j) EXPECT_NE(tags[i], tags[j]);
  }
}

// r = 1 and two all-0xff blocks leave h = 2 * (2^129 - 1) = 2^130 - 2 before
// the final reduction, which must subtract p = 2^130 - 5 to leave 3. With
// s = 2^128 - 1 the tag is 3 + s mod 2^128 = 2. Random inputs essentially
// never land in [p, 2^130), so only a constructed case checks this step.
TEST(Poly1305, FinalReductionSubtractsP) {
  Poly1305::Key key{};
  key[0] = 1;
  std::fill(key.begin() + 16, key.end(), 0xff);
  const std::vector<std::uint8_t> data(32, 0xff);
  EXPECT_EQ(to_hex(Poly1305::mac(key, data)), "02000000000000000000000000000000");
  EXPECT_EQ(Poly1305::mac(key, data), testutil::reference::Poly1305::mac(key, data));
}

// Seeded differential against the 26-bit-limb reference: lengths 0-2048 at
// start offsets 0-7, all-zero/all-0xff/random messages, each fed through
// update() in random pieces (empty ones and 16-byte boundaries included).
// One key in eight is all-0xff: r is all-ones before clamping and s is
// 2^128 - 1, so all-0xff messages push h past p before the final reduction.
TEST(Poly1305, MatchesScalarReference) {
  sim::Random rng(0x90171305);
  std::vector<std::uint8_t> msg(2048 + 16);
  for (int trial = 0; trial < 100000; ++trial) {
    Poly1305::Key key;
    if (trial % 8 == 0) {
      key.fill(0xff);
    } else {
      for (auto& b : key) b = static_cast<std::uint8_t>(rng.next_u64());
    }
    const std::size_t len = rng.uniform(2049), offset = rng.uniform(8);
    testutil::reference::fill_pattern(rng, msg, trial);
    const auto data = std::span<const std::uint8_t>(msg).subspan(offset, len);

    Poly1305 got(key);
    testutil::reference::Poly1305 want(key);
    std::size_t pos = 0;
    while (pos < len) {
      std::size_t n = 0;
      switch (rng.uniform(4)) {
        case 0: n = 0; break;
        case 1: n = 16 * rng.uniform(4); break;
        case 2: n = 16 - pos % 16; break;  // up to the next 16-byte boundary
        default: n = rng.uniform(100); break;
      }
      n = std::min(n, len - pos);
      got.update(data.subspan(pos, n));
      want.update(data.subspan(pos, n));
      pos += n;
    }
    ASSERT_EQ(to_hex(got.finalize()), to_hex(want.finalize()))
        << "trial " << trial << " len " << len;
    if (trial % 8 == 1) {
      ASSERT_EQ(Poly1305::mac(key, data), testutil::reference::Poly1305::mac(key, data))
          << "trial " << trial;
    }
  }
}

}  // namespace
}  // namespace barb::crypto
