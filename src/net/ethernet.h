// Ethernet II framing.
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <span>

#include "net/mac_address.h"
#include "util/byte_io.h"

namespace barb::net {

// EtherType values used by the simulated network.
enum class EtherType : std::uint16_t {
  kIpv4 = 0x0800,
  kArp = 0x0806,
};

// Wire layout: dst(6) | src(6) | ethertype(2).
struct EthernetHeader {
  static constexpr std::size_t kSize = 14;

  MacAddress dst;
  MacAddress src;
  std::uint16_t ethertype = 0;

  void write(std::span<std::uint8_t, kSize> out) const {
    std::memcpy(out.data(), dst.bytes().data(), 6);
    std::memcpy(out.data() + 6, src.bytes().data(), 6);
    store_be16(out.data() + 12, ethertype);
  }

  void read(std::span<const std::uint8_t, kSize> in) {
    std::array<std::uint8_t, 6> mac;
    std::memcpy(mac.data(), in.data(), 6);
    dst = MacAddress(mac);
    std::memcpy(mac.data(), in.data() + 6, 6);
    src = MacAddress(mac);
    ethertype = load_be16(in.data() + 12);
  }
};

// Ethernet physical-layer constants (used by the link model).
// Frames are stored without FCS; the wire adds FCS + preamble + IFG.
constexpr std::size_t kEthernetMinFrameNoFcs = 60;    // 64 with FCS
constexpr std::size_t kEthernetMaxFrameNoFcs = 1514;  // 1518 with FCS
constexpr std::size_t kEthernetWireOverhead = 24;     // FCS(4) + preamble(8) + IFG(12)
constexpr std::size_t kEthernetMtu = 1500;            // max L3 payload

}  // namespace barb::net
