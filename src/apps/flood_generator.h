// Packet flood generator — the attacker's tool (the paper used a custom
// raw-socket generator, documented in Ihde's thesis [11]).
//
// Crafts Ethernet frames directly and injects them through the attacking
// host's NIC at a fixed packet rate, bypassing that host's own transport
// stack exactly like a raw socket. Supports UDP floods, TCP SYN floods, and
// TCP data floods (the last elicits one RST per packet from the victim when
// the flood is *allowed* through the firewall — the effect behind the
// paper's allow-vs-deny factor of two).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "net/frame_buffer.h"
#include "net/packet_builder.h"
#include "stack/host.h"

namespace barb::apps {

enum class FloodType {
  kUdp,      // UDP datagrams to the target port
  kTcpSyn,   // bare SYNs
  kTcpData,  // ACK-flag data segments for a nonexistent connection
};

struct FloodConfig {
  net::Ipv4Address target;
  std::uint16_t target_port = 7777;
  FloodType type = FloodType::kUdp;
  double rate_pps = 10000.0;
  // Total frame size on the wire (without FCS); 60 is the Ethernet minimum.
  std::size_t frame_size = 60;
  // Source address handling. With spoofing enabled, source IP and port are
  // randomized per packet (the paper notes spoofing lets attack packets
  // traverse deep into the rule-set); without it every frame comes from the
  // attacker's own address and port 40001.
  bool spoof_source = false;
};

class FloodGenerator {
 public:
  FloodGenerator(stack::Host& attacker, FloodConfig config);

  void start();
  void stop();
  bool running() const { return running_; }

  // Changes the flood rate. While running, the pacing timer re-arms from the
  // current instant at the new interval.
  void set_rate(double pps);
  const FloodConfig& config() const { return config_; }
  std::uint64_t packets_sent() const { return packets_sent_; }

 private:
  void arm_timer();
  void send_one();
  net::Packet craft_packet();

  stack::Host& attacker_;
  FloodConfig config_;
  bool running_ = false;
  std::uint64_t packets_sent_ = 0;
  sim::EventHandle timer_;
  std::uint16_t ip_id_ = 0;
  // Reused across craft_packet() calls so per-frame padding costs no
  // allocation once it has grown to the configured frame size.
  std::vector<std::uint8_t> payload_scratch_;
};

}  // namespace barb::apps
