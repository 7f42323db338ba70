// Host-resident software firewall (the iptables baseline).
//
// Same single-server queueing structure as the NIC firewall — but the server
// is the host CPU (1 GHz P3-class), whose per-packet costs are two orders of
// magnitude smaller than the NIC's embedded processor. That difference is
// the paper's comparison: iptables shows no bandwidth loss below 64+ rules
// and shrugs off every flood the testbed can generate. Like the paper's
// iptables (and the netfilter study's linear per-rule fit), the filter walks
// the rule list linearly; the card's counterfactual backends have no host
// counterpart.
#pragma once

#include <cstdint>
#include <deque>

#include "firewall/rule_set.h"
#include "sim/simulation.h"
#include "stack/packet_filter.h"
#include "telemetry/registry.h"

namespace barb::firewall {

struct SoftwareFirewallConfig {
  // Netfilter hook + conntrack-less match baseline on a 1 GHz host.
  sim::Duration per_packet = sim::Duration::microseconds(1);
  sim::Duration per_rule = sim::Duration::nanoseconds(60);
  // Kernel backlog before packets are dropped.
  std::size_t backlog = 5000;
};

struct SoftwareFirewallStats {
  std::uint64_t allowed = 0;
  std::uint64_t denied = 0;
  std::uint64_t backlog_drops = 0;
  sim::Duration cpu_busy;
};

class SoftwareFirewall : public stack::HostPacketFilter {
 public:
  SoftwareFirewall(sim::Simulation& sim, SoftwareFirewallConfig config = {});

  // Rules are applied to both directions (mirroring a symmetric
  // INPUT/OUTPUT chain setup).
  void install_rule_set(RuleSet rules) { rules_ = std::move(rules); }
  const RuleSet& rule_set() const { return rules_; }
  const SoftwareFirewallStats& stats() const { return stats_; }
  // Heap held: rules and backlog queue.
  std::size_t memory_bytes() const;

  void filter(stack::FilterDirection direction, net::Packet pkt,
              Resume resume) override;

  // Registers "swfw.*" counters, a backlog-depth gauge, and a per-packet
  // service-time histogram ("swfw.service_time_ns").
  void register_metrics(telemetry::MetricRegistry& registry,
                        const std::string& labels);

 private:
  struct Job {
    net::Packet pkt;
    Resume resume;
  };

  void start_next();

  sim::Simulation& sim_;
  SoftwareFirewallConfig config_;
  RuleSet rules_;
  std::deque<Job> queue_;
  bool busy_ = false;
  SoftwareFirewallStats stats_;
  telemetry::Histogram* service_hist_ = nullptr;  // registry-owned
};

}  // namespace barb::firewall
