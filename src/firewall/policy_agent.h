// Firewall agent: host-side daemon that enrolls with the policy server,
// applies pushed policies to the local FirewallNic, heartbeats the card's
// health (including the lockup latch), and executes restart commands.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "firewall/nic_firewall.h"
#include "firewall/policy.h"
#include "firewall/policy_protocol.h"
#include "stack/host.h"
#include "stack/tcp.h"

namespace barb::firewall {

struct PolicyAgentStats {
  std::uint64_t policies_applied = 0;
  std::uint64_t policy_errors = 0;
  std::uint64_t restarts_executed = 0;
  std::uint64_t reconnects = 0;
  std::uint64_t last_version = 0;
};

class PolicyAgent {
 public:
  PolicyAgent(stack::Host& host, FirewallNic& nic, net::Ipv4Address server_ip,
              std::span<const std::uint8_t> deployment_key,
              std::uint16_t server_port = 3456);

  void start();
  // Fleet-friendly start: schedules the first connect `delay` from now, so a
  // thousand agents don't SYN the server in the same nanosecond (benches
  // stagger by index; the paper's single agent just calls start()).
  void start_after(sim::Duration delay);

  const PolicyAgentStats& stats() const { return stats_; }
  bool connected() const { return conn_ != nullptr; }
  // Heap held: the deployment key and any partly received message.
  std::size_t memory_bytes() const;

 private:
  void connect();
  void on_message(const PolicyMessage& msg);
  void apply_policy(std::string_view body);
  void send(PolicyMsgType type, std::string body);
  void schedule_heartbeat();

  stack::Host& host_;
  FirewallNic& nic_;
  net::Ipv4Address server_ip_;
  std::uint16_t server_port_;
  std::vector<std::uint8_t> key_;

  std::shared_ptr<stack::TcpConnection> conn_;
  PolicyMessageReader reader_;
  std::uint64_t next_seq_ = 1;
  sim::EventHandle heartbeat_timer_;
  sim::EventHandle reconnect_timer_;
  PolicyAgentStats stats_;
};

}  // namespace barb::firewall
