#include "net/checksum.h"

#include "util/byte_io.h"

namespace barb::net {

namespace {

// One's-complement sum of `data` taken as little-endian 16-bit words, folded
// to 16 bits. 32-bit words go into two 64-bit accumulators; since 2^16 = 1
// (mod 2^16 - 1), a 32-bit word adds the same as its two 16-bit halves, and
// the end-around-carry folds at the end keep a nonzero sum nonzero.
std::uint32_t sum_le16(std::span<const std::uint8_t> data) {
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  std::uint64_t a = 0, b = 0;
  for (; n >= 16; p += 16, n -= 16) {
    a += std::uint64_t{load_le32(p)} + load_le32(p + 8);
    b += std::uint64_t{load_le32(p + 4)} + load_le32(p + 12);
  }
  // Tail in 8/4/2/1-byte steps; a lone last byte is the low half of a
  // zero-padded little-endian word.
  if (n >= 8) {
    a += load_le32(p);
    b += load_le32(p + 4);
    p += 8;
    n -= 8;
  }
  if (n >= 4) {
    a += load_le32(p);
    p += 4;
    n -= 4;
  }
  if (n >= 2) {
    b += static_cast<std::uint32_t>(p[0]) | static_cast<std::uint32_t>(p[1]) << 8;
    p += 2;
    n -= 2;
  }
  if (n > 0) a += *p;

  std::uint64_t s = a + b;
  s = (s & 0xffffffff) + (s >> 32);
  s = (s & 0xffffffff) + (s >> 32);
  s = (s & 0xffff) + (s >> 16);
  s = (s & 0xffff) + (s >> 16);
  return static_cast<std::uint32_t>(s);
}

}  // namespace

// RFC 1071 section 2(B): the one's-complement sum of byte-swapped words is
// the byte-swap of the sum, so the little-endian sum is swapped once here to
// give the network-order partial sum the contract promises.
std::uint32_t checksum_accumulate(std::span<const std::uint8_t> data, std::uint32_t acc) {
  const std::uint32_t s = sum_le16(data);
  return acc + ((s >> 8 | s << 8) & 0xffff);
}

std::uint16_t checksum_finish(std::uint32_t acc) {
  while (acc >> 16) acc = (acc & 0xffff) + (acc >> 16);
  return static_cast<std::uint16_t>(~acc & 0xffff);
}

std::uint16_t internet_checksum(std::span<const std::uint8_t> data) {
  return checksum_finish(checksum_accumulate(data));
}

std::uint16_t transport_checksum(Ipv4Address src, Ipv4Address dst, std::uint8_t protocol,
                                 std::span<const std::uint8_t> segment) {
  // The IPv4 pseudo-header's 16-bit words: source, destination, zero and
  // protocol, and the segment length as the 16-bit field carries it.
  const std::uint32_t s = src.value(), d = dst.value();
  const std::uint32_t pseudo = (s >> 16) + (s & 0xffff) + (d >> 16) + (d & 0xffff) +
                               protocol + static_cast<std::uint16_t>(segment.size());
  return checksum_finish(checksum_accumulate(segment, pseudo));
}

}  // namespace barb::net
