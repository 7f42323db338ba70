#include "net/checksum.h"

#include <gtest/gtest.h>

#include <vector>

#include "sim/random.h"
#include "testutil/reference_kernels.h"

namespace barb::net {
namespace {

// RFC 1071 worked example: the checksum of this sequence is well known.
TEST(Checksum, Rfc1071Example) {
  const std::vector<std::uint8_t> data = {0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7};
  // Sum = 0x0001 + 0xf203 + 0xf4f5 + 0xf6f7 = 0x2ddf0 -> fold -> 0xddf2 -> ~ = 0x220d
  EXPECT_EQ(internet_checksum(data), 0x220d);
}

TEST(Checksum, ZeroDataChecksumIsAllOnes) {
  const std::vector<std::uint8_t> data(10, 0);
  EXPECT_EQ(internet_checksum(data), 0xffff);
}

TEST(Checksum, OddLengthPadsWithZero) {
  const std::vector<std::uint8_t> even = {0x12, 0x34, 0xab, 0x00};
  const std::vector<std::uint8_t> odd = {0x12, 0x34, 0xab};
  EXPECT_EQ(internet_checksum(even), internet_checksum(odd));
}

// Property: inserting the computed checksum into the data yields a verify sum
// of zero — this is exactly how IP header verification works.
TEST(Checksum, SelfVerifyingProperty) {
  sim::Random rng(31);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<std::uint8_t> data(20 + rng.uniform(60) * 2);
    for (auto& b : data) b = static_cast<std::uint8_t>(rng.next_u64());
    data[10] = 0;
    data[11] = 0;
    const std::uint16_t sum = internet_checksum(data);
    data[10] = static_cast<std::uint8_t>(sum >> 8);
    data[11] = static_cast<std::uint8_t>(sum);
    EXPECT_EQ(internet_checksum(data), 0);
  }
}

TEST(Checksum, AccumulateIsAssociative) {
  sim::Random rng(33);
  std::vector<std::uint8_t> data(64);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next_u64());
  const std::uint16_t whole = internet_checksum(data);
  // Split at an even offset: accumulation must agree.
  const auto acc1 = checksum_accumulate(std::span(data).first(32));
  const auto acc2 = checksum_accumulate(std::span(data).subspan(32), acc1);
  EXPECT_EQ(checksum_finish(acc2), whole);
}

// Seeded differential against the 16-bit-word reference: lengths 0-2048 at
// start offsets 0-7 inside a larger buffer, all-zero/all-0xff/random bytes,
// a random incoming partial sum, and the input split at a random even
// offset. Partial sums may differ by a multiple of 0xffff; folded results
// may not.
TEST(Checksum, MatchesScalarReference) {
  namespace ref = testutil::reference;
  sim::Random rng(0xc5c51071);
  std::vector<std::uint8_t> buf(2048 + 16);
  for (int trial = 0; trial < 100000; ++trial) {
    const std::size_t len = rng.uniform(2049), offset = rng.uniform(8);
    ref::fill_pattern(rng, buf, trial);
    const auto data = std::span<const std::uint8_t>(buf).subspan(offset, len);
    const auto acc0 = static_cast<std::uint32_t>(rng.uniform(1u << 20));

    const std::uint32_t got = checksum_accumulate(data, acc0);
    const std::uint32_t want = ref::checksum_accumulate(data, acc0);
    ASSERT_EQ(got % 0xffff, want % 0xffff) << "trial " << trial << " len " << len;
    ASSERT_EQ(checksum_finish(got), ref::checksum_finish(want)) << "trial " << trial;
    ASSERT_EQ(internet_checksum(data), ref::checksum_finish(ref::checksum_accumulate(data)))
        << "trial " << trial;

    const std::size_t split = 2 * rng.uniform(len / 2 + 1);
    const std::uint32_t halves =
        checksum_accumulate(data.subspan(split), checksum_accumulate(data.first(split), acc0));
    ASSERT_EQ(checksum_finish(halves), checksum_finish(got))
        << "trial " << trial << " split " << split;

    const Ipv4Address src(static_cast<std::uint32_t>(rng.next_u64()));
    const Ipv4Address dst(static_cast<std::uint32_t>(rng.next_u64()));
    const auto protocol = static_cast<std::uint8_t>(rng.next_u64());
    ASSERT_EQ(transport_checksum(src, dst, protocol, data),
              ref::transport_checksum(src, dst, protocol, data))
        << "trial " << trial;
  }
}

TEST(TransportChecksum, DetectsCorruption) {
  sim::Random rng(35);
  const Ipv4Address src(10, 0, 0, 1), dst(10, 0, 0, 2);
  std::vector<std::uint8_t> segment(40);
  for (auto& b : segment) b = static_cast<std::uint8_t>(rng.next_u64());
  segment[16] = segment[17] = 0;  // TCP checksum field offset
  const std::uint16_t sum = transport_checksum(src, dst, 6, segment);
  segment[16] = static_cast<std::uint8_t>(sum >> 8);
  segment[17] = static_cast<std::uint8_t>(sum);
  // Verification: checksum over segment with pseudo-header must be 0.
  EXPECT_EQ(transport_checksum(src, dst, 6, segment), 0);
  // Any single-byte corruption is detected.
  for (std::size_t i = 0; i < segment.size(); ++i) {
    auto bad = segment;
    bad[i] ^= 0x5a;
    EXPECT_NE(transport_checksum(src, dst, 6, bad), 0) << "byte " << i;
  }
}

TEST(TransportChecksum, PseudoHeaderBindsAddressesAndProtocol) {
  const Ipv4Address src(10, 0, 0, 1), dst(10, 0, 0, 2);
  const std::vector<std::uint8_t> segment(20, 0x11);
  const auto base = transport_checksum(src, dst, 6, segment);
  EXPECT_NE(base, transport_checksum(Ipv4Address(10, 0, 0, 3), dst, 6, segment));
  EXPECT_NE(base, transport_checksum(src, Ipv4Address(10, 0, 0, 3), 6, segment));
  EXPECT_NE(base, transport_checksum(src, dst, 17, segment));
}

}  // namespace
}  // namespace barb::net
