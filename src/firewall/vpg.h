// Virtual Private Groups: encrypted, authenticated channels between the
// NICs of group members (Markham et al.; the ADF's headline feature).
//
// Encapsulation replaces the transport payload of an IPv4 packet with
//   VpgHeader | ChaCha20-Poly1305(seal)
// under a per-group traffic key derived from the group master key. The
// cleartext VPG header is bound as AAD; the AEAD nonce combines the
// sender's (outer) IPv4 address with the sender's 64-bit sequence number,
// so any number of group members can share the key without nonce reuse.
// Replay protection is a per-(group, sender) sliding window.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "crypto/aead.h"
#include "net/frame_view.h"
#include "net/packet.h"

namespace barb::firewall {

struct VpgStats {
  std::uint64_t encapsulated = 0;
  std::uint64_t decapsulated = 0;
  std::uint64_t auth_failures = 0;
  std::uint64_t replays_dropped = 0;
  std::uint64_t unknown_vpg = 0;
};

class VpgTable {
 public:
  // Installs (or replaces) a group keyed by the 32-byte master key. Both
  // members derive the same per-direction keys from the master.
  void install(std::uint32_t vpg_id, std::span<const std::uint8_t> master_key);
  void remove(std::uint32_t vpg_id);
  bool has(std::uint32_t vpg_id) const { return groups_.contains(vpg_id); }
  std::size_t size() const { return groups_.size(); }
  const VpgStats& stats() const { return stats_; }
  // Heap held by the group table and its per-sender replay windows.
  std::size_t memory_bytes() const;

  // Rewrites `frame` (a full Ethernet frame) into its VPG-encapsulated form.
  // Returns false if the VPG is unknown or the frame is not IPv4.
  bool encapsulate(std::uint32_t vpg_id, std::vector<std::uint8_t>& frame);

  // Authenticates and decrypts a VPG frame in place, restoring the original
  // IPv4 packet. Returns false (and counts why) on failure.
  bool decapsulate(std::vector<std::uint8_t>& frame);

  // Packet forms used on the NIC fast path: frame buffers are immutable, so
  // a successful encap/decap swaps in a freshly pooled buffer (reusing the
  // packet's cached parse for the input frame) and leaves `created`/`id`
  // untouched. On failure the packet is unchanged.
  bool encapsulate(std::uint32_t vpg_id, net::Packet& pkt);
  bool decapsulate(net::Packet& pkt);

 private:
  struct ReplayState {
    // Highest seen + bitmap of the preceding 64 sequences.
    std::uint64_t highest = 0;
    std::uint64_t window = 0;
  };
  struct Group {
    crypto::Aead::Key key;
    std::uint64_t tx_seq = 0;
    // Per-sender replay windows (keyed by the sender's outer IPv4 address).
    std::unordered_map<std::uint32_t, ReplayState> rx;
  };

  static crypto::Aead::Nonce nonce_for(std::uint32_t sender_ip, std::uint64_t seq);
  static bool replay_check_and_update(ReplayState& state, std::uint64_t seq);

  // Shared cores: build the rewritten frame into `out` (must be empty).
  // Both entry forms (vector and Packet) funnel through these so their
  // wire bytes are identical.
  bool encapsulate_into(std::uint32_t vpg_id, std::span<const std::uint8_t> frame,
                        const net::FrameView& view, std::vector<std::uint8_t>& out);
  bool decapsulate_into(std::span<const std::uint8_t> frame,
                        const net::FrameView& view, std::vector<std::uint8_t>& out);

  std::unordered_map<std::uint32_t, Group> groups_;
  VpgStats stats_;
};

}  // namespace barb::firewall
