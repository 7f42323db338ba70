#include "crypto/aead.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/random.h"
#include "util/byte_io.h"

namespace barb::crypto {
namespace {

struct RfcVector {
  Aead::Key key;
  Aead::Nonce nonce;
  std::vector<std::uint8_t> aad;
  std::string plaintext;
};

RfcVector rfc8439_vector() {
  RfcVector v;
  for (std::size_t i = 0; i < 32; ++i) v.key[i] = static_cast<std::uint8_t>(0x80 + i);
  v.nonce = {0x07, 0x00, 0x00, 0x00, 0x40, 0x41, 0x42, 0x43, 0x44, 0x45, 0x46, 0x47};
  v.aad = {0x50, 0x51, 0x52, 0x53, 0xc0, 0xc1, 0xc2, 0xc3, 0xc4, 0xc5, 0xc6, 0xc7};
  v.plaintext =
      "Ladies and Gentlemen of the class of '99: If I could offer you "
      "only one tip for the future, sunscreen would be it.";
  return v;
}

// RFC 8439 section 2.8.2.
TEST(Aead, Rfc8439SealVector) {
  const auto v = rfc8439_vector();
  const std::vector<std::uint8_t> pt(v.plaintext.begin(), v.plaintext.end());
  const auto sealed = Aead::seal(v.key, v.nonce, v.aad, pt);
  ASSERT_EQ(sealed.size(), pt.size() + Aead::kTagSize);
  EXPECT_EQ(to_hex(std::span(sealed).first(16)), "d31a8d34648e60db7b86afbc53ef7ec2");
  EXPECT_EQ(to_hex(std::span(sealed).last(16)), "1ae10b594f09e26a7e902ecbd0600691");
}

TEST(Aead, Rfc8439OpenVector) {
  const auto v = rfc8439_vector();
  const std::vector<std::uint8_t> pt(v.plaintext.begin(), v.plaintext.end());
  const auto sealed = Aead::seal(v.key, v.nonce, v.aad, pt);
  const auto opened = Aead::open(v.key, v.nonce, v.aad, sealed);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(*opened, pt);
}

// The same RFC 8439 section 2.8.2 vector, sealed and opened in place.
TEST(Aead, Rfc8439VectorInPlace) {
  const auto v = rfc8439_vector();
  std::vector<std::uint8_t> buf(v.plaintext.begin(), v.plaintext.end());
  const Aead::Tag tag = Aead::seal_in_place(v.key, v.nonce, v.aad, buf);
  EXPECT_EQ(to_hex(std::span(buf).first(16)), "d31a8d34648e60db7b86afbc53ef7ec2");
  EXPECT_EQ(to_hex(tag), "1ae10b594f09e26a7e902ecbd0600691");
  const std::vector<std::uint8_t> pt(v.plaintext.begin(), v.plaintext.end());
  const auto sealed = Aead::seal(v.key, v.nonce, v.aad, pt);
  EXPECT_EQ(to_hex(sealed), to_hex(buf) + to_hex(tag));

  ASSERT_TRUE(Aead::open_in_place(v.key, v.nonce, v.aad, buf, tag));
  EXPECT_EQ(buf, pt);
}

// A wrong tag or a flipped ciphertext byte fails and leaves the buffer
// byte-for-byte as it was.
TEST(Aead, OpenInPlaceFailureLeavesBufferUnchanged) {
  const auto v = rfc8439_vector();
  std::vector<std::uint8_t> ciphertext(v.plaintext.begin(), v.plaintext.end());
  const Aead::Tag tag = Aead::seal_in_place(v.key, v.nonce, v.aad, ciphertext);

  auto bad_tag = tag;
  bad_tag[5] ^= 0x01;
  auto buf = ciphertext;
  EXPECT_FALSE(Aead::open_in_place(v.key, v.nonce, v.aad, buf, bad_tag));
  EXPECT_EQ(buf, ciphertext);

  for (std::size_t i : {std::size_t{0}, ciphertext.size() / 2, ciphertext.size() - 1}) {
    auto flipped = ciphertext;
    flipped[i] ^= 0x80;
    const auto before = flipped;
    EXPECT_FALSE(Aead::open_in_place(v.key, v.nonce, v.aad, flipped, tag)) << "byte " << i;
    EXPECT_EQ(flipped, before) << "byte " << i;
  }
}

TEST(Aead, TamperedCiphertextRejected) {
  const auto v = rfc8439_vector();
  const std::vector<std::uint8_t> pt(v.plaintext.begin(), v.plaintext.end());
  auto sealed = Aead::seal(v.key, v.nonce, v.aad, pt);
  for (std::size_t i : {std::size_t{0}, sealed.size() / 2, sealed.size() - 1}) {
    auto bad = sealed;
    bad[i] ^= 0x01;
    EXPECT_FALSE(Aead::open(v.key, v.nonce, v.aad, bad).has_value()) << "byte " << i;
  }
}

TEST(Aead, TamperedAadRejected) {
  const auto v = rfc8439_vector();
  const std::vector<std::uint8_t> pt(v.plaintext.begin(), v.plaintext.end());
  const auto sealed = Aead::seal(v.key, v.nonce, v.aad, pt);
  auto bad_aad = v.aad;
  bad_aad[0] ^= 0xff;
  EXPECT_FALSE(Aead::open(v.key, v.nonce, bad_aad, sealed).has_value());
}

TEST(Aead, WrongKeyOrNonceRejected) {
  const auto v = rfc8439_vector();
  const std::vector<std::uint8_t> pt(v.plaintext.begin(), v.plaintext.end());
  const auto sealed = Aead::seal(v.key, v.nonce, v.aad, pt);
  auto k2 = v.key;
  k2[0] ^= 1;
  EXPECT_FALSE(Aead::open(k2, v.nonce, v.aad, sealed).has_value());
  auto n2 = v.nonce;
  n2[11] ^= 1;
  EXPECT_FALSE(Aead::open(v.key, n2, v.aad, sealed).has_value());
}

TEST(Aead, TooShortInputRejected) {
  const auto v = rfc8439_vector();
  const std::vector<std::uint8_t> short_input(Aead::kTagSize - 1, 0);
  EXPECT_FALSE(Aead::open(v.key, v.nonce, v.aad, short_input).has_value());
}

TEST(Aead, EmptyPlaintextRoundTrips) {
  const auto v = rfc8439_vector();
  const auto sealed = Aead::seal(v.key, v.nonce, v.aad, {});
  EXPECT_EQ(sealed.size(), Aead::kTagSize);
  const auto opened = Aead::open(v.key, v.nonce, v.aad, sealed);
  ASSERT_TRUE(opened.has_value());
  EXPECT_TRUE(opened->empty());
}

// Property sweep: random payload sizes round-trip and never verify when a
// random bit is flipped.
class AeadRoundTrip : public ::testing::TestWithParam<std::size_t> {};

TEST_P(AeadRoundTrip, SealOpenRoundTrip) {
  sim::Random rng(GetParam() * 977 + 1);
  Aead::Key key;
  Aead::Nonce nonce;
  for (auto& b : key) b = static_cast<std::uint8_t>(rng.next_u64());
  for (auto& b : nonce) b = static_cast<std::uint8_t>(rng.next_u64());
  std::vector<std::uint8_t> pt(GetParam());
  for (auto& b : pt) b = static_cast<std::uint8_t>(rng.next_u64());
  std::vector<std::uint8_t> aad(rng.uniform(40));
  for (auto& b : aad) b = static_cast<std::uint8_t>(rng.next_u64());

  const auto sealed = Aead::seal(key, nonce, aad, pt);
  const auto opened = Aead::open(key, nonce, aad, sealed);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(*opened, pt);

  if (!sealed.empty()) {
    auto bad = sealed;
    const std::size_t i = rng.uniform(bad.size());
    bad[i] ^= static_cast<std::uint8_t>(1 + rng.uniform(255));
    EXPECT_FALSE(Aead::open(key, nonce, aad, bad).has_value());
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, AeadRoundTrip,
                         ::testing::Values(0u, 1u, 15u, 16u, 17u, 64u, 100u, 576u,
                                           1400u, 1460u));

}  // namespace
}  // namespace barb::crypto
