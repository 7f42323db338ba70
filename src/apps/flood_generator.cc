#include "apps/flood_generator.h"

#include "net/tcp_header.h"
#include "util/assert.h"
#include "util/logging.h"

namespace barb::apps {

namespace {

// Source port of an unspoofed flood.
constexpr std::uint16_t kSourcePort = 40001;

}  // namespace

FloodGenerator::FloodGenerator(stack::Host& attacker, FloodConfig config)
    : attacker_(attacker), config_(config) {
  BARB_ASSERT(config_.rate_pps > 0);
}

void FloodGenerator::start() {
  if (running_) return;
  running_ = true;
  send_one();
  arm_timer();
}

void FloodGenerator::stop() {
  running_ = false;
  timer_.cancel();
}

void FloodGenerator::set_rate(double pps) {
  BARB_ASSERT(pps > 0);
  config_.rate_pps = pps;
  if (running_) {
    // Re-pace from now: the next frame goes out one new-rate interval out.
    timer_.cancel();
    arm_timer();
  }
}

void FloodGenerator::arm_timer() {
  // Fixed-interval pacing, like a busy-loop generator hitting its target
  // rate. The periodic recurrence reuses one slab record for the whole
  // flood instead of allocating a fresh timer per frame.
  timer_ = attacker_.simulation().schedule_every(
      sim::Duration::from_seconds(1.0 / config_.rate_pps), [this] { send_one(); });
}

void FloodGenerator::send_one() {
  if (!running_) return;
  attacker_.nic().transmit(craft_packet());
  ++packets_sent_;
}

net::Packet FloodGenerator::craft_packet() {
  auto& rng = attacker_.simulation().rng();
  auto& pool = net::BufferPool::instance();

  net::IpEndpoints ep;
  ep.dst_ip = config_.target;
  ep.src_mac = attacker_.mac();
  // The victim's MAC comes from the attacker's address directory.
  const auto dst_mac = attacker_.resolve(config_.target);
  ep.dst_mac = dst_mac.value_or(net::MacAddress::broadcast());

  std::uint16_t src_port = kSourcePort;
  if (config_.spoof_source) {
    // Random source within the testbed's /8 (never the real attacker).
    ep.src_ip = net::Ipv4Address(10, static_cast<std::uint8_t>(rng.uniform(255) + 1),
                                 static_cast<std::uint8_t>(rng.uniform(256)),
                                 static_cast<std::uint8_t>(rng.uniform(254) + 1));
    src_port = static_cast<std::uint16_t>(1024 + rng.uniform(60000));
  } else {
    ep.src_ip = attacker_.ip();
  }

  // Frames are written straight into recycled pool buffers: at steady state
  // a multi-million-frame flood performs no per-frame heap allocation in the
  // generator (the scratch payload below is reused across calls).
  net::FrameBufferRef frame;
  switch (config_.type) {
    case FloodType::kUdp: {
      // Pad the payload so the final frame hits the configured size.
      constexpr std::size_t kHeaders = net::EthernetHeader::kSize +
                                       net::Ipv4Header::kSize + net::UdpHeader::kSize;
      const std::size_t payload_len =
          config_.frame_size > kHeaders ? config_.frame_size - kHeaders : 0;
      payload_scratch_.assign(payload_len, 0x42);
      frame = net::build_udp_frame_pooled(pool, ep, src_port, config_.target_port,
                                          payload_scratch_, ip_id_++);
      break;
    }
    case FloodType::kTcpSyn: {
      net::TcpHeader h;
      h.src_port = src_port;
      h.dst_port = config_.target_port;
      h.seq = static_cast<std::uint32_t>(rng.next_u64());
      h.flags = net::TcpFlags::kSyn;
      h.window = 65535;
      frame = net::build_tcp_frame_pooled(pool, ep, h, {}, ip_id_++);
      break;
    }
    case FloodType::kTcpData: {
      net::TcpHeader h;
      h.src_port = src_port;
      h.dst_port = config_.target_port;
      h.seq = static_cast<std::uint32_t>(rng.next_u64());
      h.ack = static_cast<std::uint32_t>(rng.next_u64());
      h.flags = net::TcpFlags::kAck;
      h.window = 65535;
      constexpr std::size_t kHeaders = net::EthernetHeader::kSize +
                                       net::Ipv4Header::kSize + net::TcpHeader::kMinSize;
      const std::size_t payload_len =
          config_.frame_size > kHeaders ? config_.frame_size - kHeaders : 0;
      payload_scratch_.assign(payload_len, 0x42);
      frame = net::build_tcp_frame_pooled(pool, ep, h, payload_scratch_, ip_id_++);
      break;
    }
  }
  return net::Packet{std::move(frame), attacker_.simulation().now(),
                     attacker_.next_packet_id()};
}

}  // namespace barb::apps
