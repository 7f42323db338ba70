// SHA-256 (FIPS 180-4).
//
// Used for HMAC-based policy-distribution authentication and VPG key
// derivation. Streaming interface plus a one-shot helper.
//
// The compression function has two bodies: a portable one, and on x86-64
// CPUs with the SHA extensions a SHA-NI one. Each process picks once, from
// CPUID, the body every default-constructed Sha256 uses; the portable body
// is the only path on other CPUs and the reference the SHA-NI body is
// tested against. Both produce the same digests.
#pragma once

#include <array>
#include <cstdint>
#include <span>

namespace barb::crypto {

class Sha256 {
 public:
  static constexpr std::size_t kDigestSize = 32;
  static constexpr std::size_t kBlockSize = 64;
  using Digest = std::array<std::uint8_t, kDigestSize>;

  // Runs `blocks` consecutive 64-byte blocks through the compression
  // function, updating the eight state words in place.
  using Compress = void (*)(std::uint32_t* state, const std::uint8_t* data,
                            std::size_t blocks);
  static Compress portable();
  // The SHA-NI body, or nullptr when this CPU lacks the SHA extensions.
  static Compress sha_ni();
  // The body a default-constructed Sha256 uses: SHA-NI where available.
  static Compress selected();

  Sha256() : Sha256(selected()) {}
  // Tests name a body; everything else takes the selected one.
  explicit Sha256(Compress compress) : compress_(compress) { reset(); }

  void reset();
  void update(std::span<const std::uint8_t> data);
  Digest finalize();

  static Digest hash(std::span<const std::uint8_t> data) {
    Sha256 h;
    h.update(data);
    return h.finalize();
  }

 private:
  Compress compress_;
  std::array<std::uint32_t, 8> state_;
  std::array<std::uint8_t, kBlockSize> buffer_;
  std::size_t buffer_len_ = 0;
  std::uint64_t total_bytes_ = 0;
};

}  // namespace barb::crypto
