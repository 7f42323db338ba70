// Serialization helpers for wire formats.
//
// All simulated protocols use network byte order (big-endian), exactly like
// the real ones, so packet bytes in traces look like real packet bytes.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "util/assert.h"

namespace barb {

class ByteWriter {
 public:
  explicit ByteWriter(std::vector<std::uint8_t>& out) : out_(out) {}

  void u8(std::uint8_t v) { out_.push_back(v); }
  void u16(std::uint16_t v) {
    out_.push_back(static_cast<std::uint8_t>(v >> 8));
    out_.push_back(static_cast<std::uint8_t>(v));
  }
  void u32(std::uint32_t v) {
    u16(static_cast<std::uint16_t>(v >> 16));
    u16(static_cast<std::uint16_t>(v));
  }
  void u64(std::uint64_t v) {
    u32(static_cast<std::uint32_t>(v >> 32));
    u32(static_cast<std::uint32_t>(v));
  }
  void bytes(std::span<const std::uint8_t> data) {
    out_.insert(out_.end(), data.begin(), data.end());
  }
  void bytes(const void* data, std::size_t len) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    out_.insert(out_.end(), p, p + len);
  }
  void zeros(std::size_t n) { out_.insert(out_.end(), n, 0); }

  std::size_t size() const { return out_.size(); }

 private:
  std::vector<std::uint8_t>& out_;
};

// Bounds-checked big-endian reader. Parsers check `ok()` (or remaining())
// before trusting values; a short buffer flips `ok()` to false and all
// subsequent reads return zero instead of reading out of bounds.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  bool ok() const { return ok_; }
  std::size_t remaining() const { return data_.size() - pos_; }
  std::size_t position() const { return pos_; }

  std::uint8_t u8() {
    if (!require(1)) return 0;
    return data_[pos_++];
  }
  std::uint16_t u16() {
    if (!require(2)) return 0;
    std::uint16_t v = static_cast<std::uint16_t>(data_[pos_] << 8 | data_[pos_ + 1]);
    pos_ += 2;
    return v;
  }
  std::uint32_t u32() {
    if (!require(4)) return 0;
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v = v << 8 | data_[pos_++];
    return v;
  }
  std::uint64_t u64() {
    if (!require(8)) return 0;
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v = v << 8 | data_[pos_++];
    return v;
  }
  std::span<const std::uint8_t> bytes(std::size_t n) {
    if (!require(n)) return {};
    auto s = data_.subspan(pos_, n);
    pos_ += n;
    return s;
  }
  void skip(std::size_t n) { (void)bytes(n); }
  std::span<const std::uint8_t> rest() { return bytes(remaining()); }

 private:
  bool require(std::size_t n) {
    if (!ok_ || remaining() < n) {
      ok_ = false;
      return false;
    }
    return true;
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

// Little-endian loads and stores for the byte kernels (checksum, ChaCha20,
// Poly1305). The shift-or form is byte-order neutral; GCC merges each into
// a single load or store at -O2.
inline std::uint32_t load_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) | static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 | static_cast<std::uint32_t>(p[3]) << 24;
}

inline std::uint64_t load_le64(const std::uint8_t* p) {
  return static_cast<std::uint64_t>(p[0]) | static_cast<std::uint64_t>(p[1]) << 8 |
         static_cast<std::uint64_t>(p[2]) << 16 | static_cast<std::uint64_t>(p[3]) << 24 |
         static_cast<std::uint64_t>(p[4]) << 32 | static_cast<std::uint64_t>(p[5]) << 40 |
         static_cast<std::uint64_t>(p[6]) << 48 | static_cast<std::uint64_t>(p[7]) << 56;
}

inline void store_le32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
  p[2] = static_cast<std::uint8_t>(v >> 16);
  p[3] = static_cast<std::uint8_t>(v >> 24);
}

inline void store_le64(std::uint8_t* p, std::uint64_t v) {
  store_le32(p, static_cast<std::uint32_t>(v));
  store_le32(p + 4, static_cast<std::uint32_t>(v >> 32));
}

// Big-endian (network order) loads and stores for the fixed-offset header
// layouts in src/net: one unaligned load or store through memcpy plus a
// byte swap on little-endian hosts. (The shift-or form above, repeated over
// a header's adjacent fields, lets GCC 12 reassemble the words on the stack
// and reload them as one vector, which stalls store forwarding.)
// Host order <-> big-endian, for the helpers below.
template <typename T>
inline T big_endian(T v) {
  if constexpr (std::endian::native == std::endian::big || sizeof(T) == 1) {
    return v;
  } else if constexpr (sizeof(T) == 2) {
    return __builtin_bswap16(v);
  } else if constexpr (sizeof(T) == 4) {
    return __builtin_bswap32(v);
  } else {
    return __builtin_bswap64(v);
  }
}

inline std::uint16_t load_be16(const std::uint8_t* p) {
  std::uint16_t v;
  std::memcpy(&v, p, sizeof(v));
  return big_endian(v);
}

inline std::uint32_t load_be32(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return big_endian(v);
}

inline std::uint64_t load_be64(const std::uint8_t* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return big_endian(v);
}

inline void store_be16(std::uint8_t* p, std::uint16_t v) {
  v = big_endian(v);
  std::memcpy(p, &v, sizeof(v));
}

inline void store_be32(std::uint8_t* p, std::uint32_t v) {
  v = big_endian(v);
  std::memcpy(p, &v, sizeof(v));
}

inline void store_be64(std::uint8_t* p, std::uint64_t v) {
  v = big_endian(v);
  std::memcpy(p, &v, sizeof(v));
}

inline std::string to_hex(std::span<const std::uint8_t> data) {
  static const char* digits = "0123456789abcdef";
  std::string s;
  s.reserve(data.size() * 2);
  for (std::uint8_t b : data) {
    s.push_back(digits[b >> 4]);
    s.push_back(digits[b & 0xf]);
  }
  return s;
}

}  // namespace barb
