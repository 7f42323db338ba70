#include "crypto/sha256.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "sim/random.h"
#include "util/byte_io.h"

namespace barb::crypto {
namespace {

std::vector<std::uint8_t> bytes_of(const std::string& s) {
  return {s.begin(), s.end()};
}

std::string digest_hex(std::span<const std::uint8_t> data) {
  return to_hex(Sha256::hash(data));
}

// FIPS 180-4 / NIST example vectors.
TEST(Sha256, EmptyString) {
  EXPECT_EQ(digest_hex({}),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(digest_hex(bytes_of("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(digest_hex(bytes_of(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

// Padding boundary cases: 55 bytes fits length in one block, 56 forces a
// second padding block, 64 is exactly one data block.
TEST(Sha256, PaddingBoundaries) {
  for (std::size_t len : {55u, 56u, 57u, 63u, 64u, 65u, 119u, 120u}) {
    std::vector<std::uint8_t> data(len, 'a');
    // Compare streaming byte-at-a-time against one-shot.
    Sha256 h;
    for (auto b : data) h.update({&b, 1});
    EXPECT_EQ(h.finalize(), Sha256::hash(data)) << "len=" << len;
  }
}

TEST(Sha256, MillionAs) {
  Sha256 h;
  std::vector<std::uint8_t> chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(to_hex(h.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, StreamingSplitInvariance) {
  sim::Random rng(123);
  std::vector<std::uint8_t> data(1024);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next_u64());
  const auto expected = Sha256::hash(data);

  for (int trial = 0; trial < 20; ++trial) {
    Sha256 h;
    std::size_t pos = 0;
    while (pos < data.size()) {
      const std::size_t n =
          std::min(data.size() - pos, static_cast<std::size_t>(rng.uniform(200) + 1));
      h.update(std::span(data).subspan(pos, n));
      pos += n;
    }
    EXPECT_EQ(h.finalize(), expected);
  }
}

TEST(Sha256, ResetAllowsReuse) {
  Sha256 h;
  h.update(bytes_of("garbage"));
  h.reset();
  h.update(bytes_of("abc"));
  EXPECT_EQ(to_hex(h.finalize()),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

// Both compression bodies: the portable one runs everywhere, the SHA-NI one
// where the CPU has the SHA extensions. Default-constructed hashers use the
// SHA-NI body whenever it exists.
TEST(Sha256, SelectedBodyIsShaNiWhereAvailable) {
  const Sha256::Compress expected =
      Sha256::sha_ni() != nullptr ? Sha256::sha_ni() : Sha256::portable();
  EXPECT_EQ(Sha256::selected(), expected);
  EXPECT_NE(Sha256::portable(), nullptr);
}

struct Fips180Vector {
  std::string message;
  std::size_t repeat;
  const char* digest;
};

// FIPS 180-4 / NIST example vectors, one-shot and streamed a block plus a
// byte at a time (which reaches the buffered and the multi-block paths).
void expect_fips_vectors(Sha256::Compress body) {
  const Fips180Vector vectors[] = {
      {"", 1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
      {"abc", 1, "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"},
      {"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq", 1,
       "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"},
      {"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijklmnopjklmnopq"
       "klmnopqrlmnopqrsmnopqrstnopqrstu",
       1, "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"},
      {"a", 1000000, "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"},
  };
  for (const auto& v : vectors) {
    std::vector<std::uint8_t> data;
    for (std::size_t i = 0; i < v.repeat; ++i) {
      data.insert(data.end(), v.message.begin(), v.message.end());
    }
    SCOPED_TRACE(v.digest);
    Sha256 one_shot(body);
    one_shot.update(data);
    EXPECT_EQ(to_hex(one_shot.finalize()), v.digest);
    Sha256 streamed(body);
    for (std::size_t pos = 0; pos < data.size();) {
      const std::size_t n =
          std::min<std::size_t>(Sha256::kBlockSize + 1, data.size() - pos);
      streamed.update(std::span(data).subspan(pos, n));
      pos += n;
    }
    EXPECT_EQ(to_hex(streamed.finalize()), v.digest);
  }
}

TEST(Sha256, PortableBodyPassesFips180Vectors) {
  expect_fips_vectors(Sha256::portable());
}

TEST(Sha256, ShaNiBodyPassesFips180Vectors) {
  if (Sha256::sha_ni() == nullptr) GTEST_SKIP() << "CPU has no SHA extensions";
  expect_fips_vectors(Sha256::sha_ni());
}

// 100,000 seeded random messages of 0-4 KiB: the SHA-NI body, fed in random
// splits, must produce the portable body's one-shot digest.
TEST(Sha256, ShaNiMatchesPortableOnRandomMessages) {
  if (Sha256::sha_ni() == nullptr) GTEST_SKIP() << "CPU has no SHA extensions";
  sim::Random rng(0x5a256);
  std::vector<std::uint8_t> data;
  for (int trial = 0; trial < 100000; ++trial) {
    data.resize(rng.uniform(4097));
    for (std::size_t i = 0; i < data.size(); i += 8) {
      const std::uint64_t word = rng.next_u64();
      std::memcpy(data.data() + i, &word, std::min<std::size_t>(8, data.size() - i));
    }
    Sha256 reference(Sha256::portable());
    reference.update(data);
    const auto expected = reference.finalize();

    Sha256 split(Sha256::sha_ni());
    for (std::size_t pos = 0; pos < data.size();) {
      // Mostly short pieces, sometimes whole runs of blocks.
      const std::size_t limit = rng.bernoulli(0.25) ? 1024 : 80;
      const std::size_t n =
          std::min<std::size_t>(data.size() - pos, rng.uniform(limit) + 1);
      split.update(std::span(data).subspan(pos, n));
      pos += n;
    }
    ASSERT_EQ(split.finalize(), expected)
        << "trial " << trial << ", " << data.size() << " bytes";
  }
}

TEST(Sha256, DistinctInputsDistinctDigests) {
  EXPECT_NE(Sha256::hash(bytes_of("abc")), Sha256::hash(bytes_of("abd")));
  EXPECT_NE(Sha256::hash(bytes_of("abc")),
            Sha256::hash(bytes_of(std::string("abc\0", 4))));
}

}  // namespace
}  // namespace barb::crypto
