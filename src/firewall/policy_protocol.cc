#include "firewall/policy_protocol.h"

#include "crypto/hmac.h"
#include "util/byte_io.h"

namespace barb::firewall {

std::vector<std::uint8_t> encode_policy_message(const PolicyMessage& msg,
                                                std::span<const std::uint8_t> key) {
  std::vector<std::uint8_t> out;
  out.reserve(18 + msg.body.size() + kPolicyMacSize);
  ByteWriter w(out);
  w.u32(kPolicyMagic);
  w.u8(static_cast<std::uint8_t>(msg.type));
  w.u8(0);  // flags
  w.u64(msg.seq);
  w.u32(static_cast<std::uint32_t>(msg.body.size()));
  w.bytes(reinterpret_cast<const std::uint8_t*>(msg.body.data()), msg.body.size());
  const auto mac = crypto::hmac_sha256(key, out);
  w.bytes(mac);
  return out;
}

std::optional<PolicyMessage> PolicyMessageReader::next(
    std::span<const std::uint8_t> key) {
  if (corrupted_) return std::nullopt;
  constexpr std::size_t kHeaderSize = 18;
  if (buffer_.size() < kHeaderSize) return std::nullopt;

  ByteReader r(buffer_);
  const std::uint32_t magic = r.u32();
  if (magic != kPolicyMagic) {
    corrupted_ = true;
    return std::nullopt;
  }
  const std::uint8_t type = r.u8();
  r.u8();  // flags
  const std::uint64_t seq = r.u64();
  const std::uint32_t len = r.u32();
  if (len > 1 << 20) {  // sanity bound on policy size
    corrupted_ = true;
    return std::nullopt;
  }
  const std::size_t total = kHeaderSize + len + kPolicyMacSize;
  if (buffer_.size() < total) {
    // Room for the rest of the message, so its segments append in place.
    buffer_.reserve(total);
    return std::nullopt;
  }

  const std::span<const std::uint8_t> authed(buffer_.data(), kHeaderSize + len);
  const std::span<const std::uint8_t> mac(buffer_.data() + kHeaderSize + len,
                                          kPolicyMacSize);
  const auto expected = crypto::hmac_sha256(key, authed);
  if (!crypto::constant_time_equal(expected, mac)) {
    corrupted_ = true;
    return std::nullopt;
  }
  if (type < 1 || type > 5) {
    corrupted_ = true;
    return std::nullopt;
  }

  PolicyMessage msg;
  msg.type = static_cast<PolicyMsgType>(type);
  msg.seq = seq;
  msg.body.assign(reinterpret_cast<const char*>(buffer_.data() + kHeaderSize), len);
  buffer_.erase(buffer_.begin(), buffer_.begin() + static_cast<long>(total));
  // A drained reader holds no buffer: a fleet agent idles between pushes.
  if (buffer_.empty()) buffer_ = std::vector<std::uint8_t>();
  return msg;
}

std::optional<std::vector<std::uint8_t>> parse_hex(std::string_view hex) {
  if (hex.size() % 2 != 0) return std::nullopt;
  std::vector<std::uint8_t> out;
  out.reserve(hex.size() / 2);
  auto digit = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    return -1;
  };
  for (std::size_t i = 0; i < hex.size(); i += 2) {
    const int hi = digit(hex[i]), lo = digit(hex[i + 1]);
    if (hi < 0 || lo < 0) return std::nullopt;
    out.push_back(static_cast<std::uint8_t>(hi << 4 | lo));
  }
  return out;
}

}  // namespace barb::firewall
