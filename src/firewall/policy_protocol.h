// Policy distribution wire protocol.
//
// The EFW ships a central policy server that pushes rule-sets to firewall
// agents on every protected host. Our equivalent runs over the simulated
// TCP stack with HMAC-SHA256 message authentication under a shared
// deployment key (a compromised host must not be able to forge policy for
// others).
//
// Frame layout (big-endian):
//   magic   u32  'BPLC'
//   type    u8
//   flags   u8 (reserved, 0)
//   seq     u64  per-connection monotonic
//   len     u32  body length
//   body    len bytes (UTF-8, type-specific)
//   hmac    32 bytes over everything above
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace barb::firewall {

enum class PolicyMsgType : std::uint8_t {
  kHello = 1,         // agent -> server: "host <ip>"
  kPolicyUpdate = 2,  // server -> agent: "version <n>\n<vpgkey lines><policy text>"
  kAck = 3,           // agent -> server: "version <n>"
  kHeartbeat = 4,     // agent -> server: "status <ok|locked> processed <n>"
  kRestart = 5,       // server -> agent: restart the firewall card
};

struct PolicyMessage {
  PolicyMsgType type = PolicyMsgType::kHello;
  std::uint64_t seq = 0;
  std::string body;
};

constexpr std::uint32_t kPolicyMagic = 0x42504c43;  // 'BPLC'
constexpr std::size_t kPolicyMacSize = 32;

std::vector<std::uint8_t> encode_policy_message(const PolicyMessage& msg,
                                                std::span<const std::uint8_t> key);

// Incremental decoder over a TCP byte stream. Feed bytes with append();
// next() yields complete, authenticated messages. A bad MAC or malformed
// header poisons the stream (corrupted() == true) — the connection should
// be dropped, which is what an agent under attack must do.
class PolicyMessageReader {
 public:
  void append(std::span<const std::uint8_t> bytes) {
    buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
  }

  std::optional<PolicyMessage> next(std::span<const std::uint8_t> key);
  bool corrupted() const { return corrupted_; }
  // Heap held by buffered bytes; zero once every message is consumed.
  std::size_t memory_bytes() const { return buffer_.capacity(); }

 private:
  std::vector<std::uint8_t> buffer_;
  bool corrupted_ = false;
};

// Hex helpers for VPG key lines in policy bodies.
std::optional<std::vector<std::uint8_t>> parse_hex(std::string_view hex);

}  // namespace barb::firewall
