#include "firewall/vpg.h"

#include <algorithm>
#include <cstring>

#include "crypto/hmac.h"
#include "net/ethernet.h"
#include "util/heap_bytes.h"

namespace barb::firewall {

void VpgTable::install(std::uint32_t vpg_id, std::span<const std::uint8_t> master_key) {
  Group g;
  const auto derived = crypto::derive_key(master_key, "vpg-traffic");
  std::memcpy(g.key.data(), derived.data(), g.key.size());
  groups_[vpg_id] = g;
}

void VpgTable::remove(std::uint32_t vpg_id) { groups_.erase(vpg_id); }

crypto::Aead::Nonce VpgTable::nonce_for(std::uint32_t sender_ip, std::uint64_t seq) {
  crypto::Aead::Nonce nonce;
  for (int i = 0; i < 4; ++i) {
    nonce[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(sender_ip >> (24 - 8 * i));
  }
  for (int i = 0; i < 8; ++i) {
    nonce[static_cast<std::size_t>(4 + i)] = static_cast<std::uint8_t>(seq >> (56 - 8 * i));
  }
  return nonce;
}

bool VpgTable::replay_check_and_update(ReplayState& state, std::uint64_t seq) {
  if (seq == 0) return false;
  if (seq > state.highest) {
    const std::uint64_t shift = seq - state.highest;
    if (shift > 64) {
      state.window = 0;
    } else if (shift == 64) {
      state.window = std::uint64_t{1} << 63;
    } else {
      state.window = (state.window << shift) | (std::uint64_t{1} << (shift - 1));
    }
    state.highest = seq;
    return true;
  }
  if (seq == state.highest) return false;  // replay of the newest packet
  const std::uint64_t offset = state.highest - seq;
  if (offset > 64) return false;  // older than the window tracks
  const std::uint64_t bit = std::uint64_t{1} << (offset - 1);
  if (state.window & bit) return false;
  state.window |= bit;
  return true;
}

bool VpgTable::encapsulate_into(std::uint32_t vpg_id,
                                std::span<const std::uint8_t> frame,
                                const net::FrameView& view,
                                std::vector<std::uint8_t>& out) {
  auto it = groups_.find(vpg_id);
  if (it == groups_.end()) {
    ++stats_.unknown_vpg;
    return false;
  }
  Group& g = it->second;

  if (!view.ip) return false;
  const auto& ip = *view.ip;
  const auto inner = view.l3_payload;
  const std::size_t new_payload =
      net::VpgHeader::kSize + inner.size() + crypto::Aead::kTagSize;
  if (net::Ipv4Header::kSize + new_payload > net::kEthernetMtu) {
    return false;  // would not fit the MTU; hosts must reduce MSS for VPGs
  }

  net::VpgHeader vh;
  vh.vpg_id = vpg_id;
  vh.seq = ++g.tx_seq;
  vh.orig_protocol = ip.protocol;
  vh.payload_len =
      static_cast<std::uint16_t>(inner.size() + crypto::Aead::kTagSize);

  // Ethernet | IPv4 | VPG header | plaintext | tag, then seal the plaintext
  // where it lies. The buffer is sized once; its zero fill is the padding.
  constexpr std::size_t kHeaders = net::EthernetHeader::kSize + net::Ipv4Header::kSize;
  out.resize(std::max(kHeaders + new_payload, net::kEthernetMinFrameNoFcs));
  const std::span<std::uint8_t> bytes(out);
  std::copy(frame.begin(), frame.begin() + net::EthernetHeader::kSize, bytes.begin());
  net::Ipv4Header new_ip = ip;
  new_ip.protocol = static_cast<std::uint8_t>(net::IpProtocol::kVpg);
  new_ip.total_length = static_cast<std::uint16_t>(net::Ipv4Header::kSize + new_payload);
  new_ip.write(bytes.subspan<net::EthernetHeader::kSize, net::Ipv4Header::kSize>());
  const auto aad = bytes.subspan<kHeaders, net::VpgHeader::kSize>();
  vh.write(aad);
  constexpr std::size_t kBody = kHeaders + net::VpgHeader::kSize;
  const auto body = bytes.subspan(kBody, inner.size());
  std::copy(inner.begin(), inner.end(), body.begin());
  const auto tag =
      crypto::Aead::seal_in_place(g.key, nonce_for(ip.src.value(), vh.seq), aad, body);
  std::copy(tag.begin(), tag.end(), bytes.subspan(kBody + inner.size(), tag.size()).begin());

  ++stats_.encapsulated;
  return true;
}

bool VpgTable::decapsulate_into(std::span<const std::uint8_t> frame,
                                const net::FrameView& view,
                                std::vector<std::uint8_t>& out) {
  if (!view.ip || !view.vpg) return false;
  auto it = groups_.find(view.vpg->vpg_id);
  if (it == groups_.end()) {
    ++stats_.unknown_vpg;
    return false;
  }
  Group& g = it->second;
  const net::VpgHeader& vh = *view.vpg;
  const auto sealed = view.l4_payload;
  if (sealed.size() < crypto::Aead::kTagSize) {
    ++stats_.auth_failures;
    return false;
  }
  const std::size_t plain_size = sealed.size() - crypto::Aead::kTagSize;

  // Ethernet | IPv4 | ciphertext, then open the ciphertext where it lies.
  // The AAD is the re-serialized header (reserved byte zero), not the raw
  // header bytes. The buffer is sized once; its zero fill is the padding.
  constexpr std::size_t kHeaders = net::EthernetHeader::kSize + net::Ipv4Header::kSize;
  out.resize(std::max(kHeaders + plain_size, net::kEthernetMinFrameNoFcs));
  const std::span<std::uint8_t> bytes(out);
  std::copy(frame.begin(), frame.begin() + net::EthernetHeader::kSize, bytes.begin());
  net::Ipv4Header new_ip = *view.ip;
  new_ip.protocol = vh.orig_protocol;
  new_ip.total_length = static_cast<std::uint16_t>(net::Ipv4Header::kSize + plain_size);
  new_ip.write(bytes.subspan<net::EthernetHeader::kSize, net::Ipv4Header::kSize>());
  const auto body = bytes.subspan(kHeaders, plain_size);
  const auto ciphertext = sealed.first(plain_size);
  std::copy(ciphertext.begin(), ciphertext.end(), body.begin());
  if (!crypto::Aead::open_in_place(g.key, nonce_for(view.ip->src.value(), vh.seq),
                                   vh.to_bytes(), body,
                                   sealed.last<crypto::Aead::kTagSize>())) {
    ++stats_.auth_failures;
    return false;
  }
  // Replay protection only after authentication (unauthenticated sequence
  // numbers must not be able to poison the window), per sender.
  if (!replay_check_and_update(g.rx[view.ip->src.value()], vh.seq)) {
    ++stats_.replays_dropped;
    return false;
  }

  ++stats_.decapsulated;
  return true;
}

bool VpgTable::encapsulate(std::uint32_t vpg_id, std::vector<std::uint8_t>& frame) {
  auto view = net::FrameView::parse(frame);
  if (!view) return false;
  std::vector<std::uint8_t> out;
  if (!encapsulate_into(vpg_id, frame, *view, out)) return false;
  frame = std::move(out);
  return true;
}

bool VpgTable::decapsulate(std::vector<std::uint8_t>& frame) {
  auto view = net::FrameView::parse(frame);
  if (!view) return false;
  std::vector<std::uint8_t> out;
  if (!decapsulate_into(frame, *view, out)) return false;
  frame = std::move(out);
  return true;
}

bool VpgTable::encapsulate(std::uint32_t vpg_id, net::Packet& pkt) {
  const net::FrameView* view = pkt.view();
  if (view == nullptr) return false;
  // Sealed frame = original + VPG header + AEAD tag (then min-size padding).
  auto builder = net::BufferPool::instance().build(
      pkt.size() + net::VpgHeader::kSize + crypto::Aead::kTagSize);
  if (!encapsulate_into(vpg_id, pkt.bytes(), *view, builder.buffer())) {
    return false;
  }
  pkt.buffer = builder.seal();
  return true;
}

bool VpgTable::decapsulate(net::Packet& pkt) {
  const net::FrameView* view = pkt.view();
  if (view == nullptr) return false;
  // Plaintext is never larger than the sealed frame.
  auto builder = net::BufferPool::instance().build(pkt.size());
  if (!decapsulate_into(pkt.bytes(), *view, builder.buffer())) return false;
  pkt.buffer = builder.seal();
  return true;
}

std::size_t VpgTable::memory_bytes() const {
  std::size_t bytes = util::heap_bytes(groups_);
  for (const auto& [id, group] : groups_) bytes += util::heap_bytes(group.rx);
  return bytes;
}

}  // namespace barb::firewall
