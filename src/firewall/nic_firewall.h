// NIC-resident firewall model (EFW / ADF).
//
// Both directions of traffic are serviced by one embedded processor working
// through finite RX/TX descriptor rings. Service time follows the calibrated
// DeviceProfile cost model; frames that arrive while the rings are full are
// dropped — that queue, not the wire, is the bottleneck the paper's flood
// attacks saturate.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>

#include "firewall/flood_guard.h"
#include "firewall/matcher.h"
#include "firewall/profiles.h"
#include "firewall/rule_set.h"
#include "firewall/vpg.h"
#include "stack/nic.h"
#include "telemetry/registry.h"

namespace barb::firewall {

struct FirewallNicStats {
  std::uint64_t rx_ring_drops = 0;
  std::uint64_t rx_ring_drops_large = 0;  // subset of rx_ring_drops, frames > 500 B
  std::uint64_t tx_ring_drops = 0;
  std::uint64_t rx_allowed = 0;
  std::uint64_t rx_denied = 0;
  std::uint64_t tx_allowed = 0;
  std::uint64_t tx_denied = 0;
  std::uint64_t vpg_drops = 0;     // failed encap/decap (auth, replay, oversize)
  std::uint64_t lockup_drops = 0;  // frames discarded while latched
  std::uint64_t frames_processed = 0;
  std::uint64_t rules_traversed = 0;  // total rule-walk length across frames
  sim::Duration cpu_busy;          // accumulated embedded-CPU service time
};

class FirewallNic : public stack::Nic {
 public:
  // `profile` holds the card's costs and buffers; `backend` is the rule
  // matching it runs, fixed for the card's lifetime.
  FirewallNic(sim::Simulation& sim, net::MacAddress mac, std::string name,
              DeviceProfile profile, MatchBackend backend = MatchBackend::kLinear);

  // Policy installation (normally via the PolicyAgent). The default policy
  // is an empty rule-set with default-allow, i.e. an unconfigured card.
  // A push is atomic with respect to frame processing (the embedded CPU
  // picks up verdicts between frames): the matcher drops every verdict of
  // the previous rule set before the next frame is classified.
  void install_rule_set(RuleSet rules) {
    matcher_.install(std::move(rules));
    reconfigure_guard();
  }

  // Enables the FloodGuard screening stage (the paper's hoped-for
  // flood-tolerant design; see flood_guard.h). Screening runs before the
  // rule walk on inbound frames at near-arrival cost.
  void enable_flood_guard(const FloodGuardConfig& config) {
    guard_ = std::make_unique<FloodGuard>(config);
    reconfigure_guard();
  }
  // The card's FloodGuard; null unless enable_flood_guard was called.
  const FloodGuard* flood_guard() const { return guard_.get(); }

  // Management exemption: traffic to/from the policy server bypasses the
  // rule walk (base cost only), mirroring the EFW's implicit always-allow
  // for policy-server communication — without it, a deny-by-default policy
  // would cut the card off from its own management channel.
  void set_management_peer(net::Ipv4Address ip) { management_peer_ = ip; }
  const RuleSet& rule_set() const { return matcher_.rules(); }
  VpgTable& vpg_table() { return vpgs_; }

  const DeviceProfile& profile() const { return profile_; }
  const FirewallNicStats& fw_stats() const { return fwstats_; }
  // The card's classification: its backend, rules and that backend's tables.
  const Matcher& matcher() const { return matcher_; }
  bool locked_up() const { return locked_; }

  // Heap held by the card: the matcher (rules and its backend's tables), the
  // ring queue, the VPG table and, when configured, the FloodGuard with its
  // source table.
  std::size_t memory_bytes() const;

  // Registers the card's counters ("fw.*"), queue gauges, a service-time
  // histogram ("fw.service_time_ns", fed by every processed frame), the
  // matcher's "match.*" set (compiled backends), and — when the card has a
  // FloodGuard — the "guard.*" screening counters.
  void register_metrics(telemetry::MetricRegistry& registry,
                        const std::string& labels);

  // Firewall-agent restart: clears the lockup latch and flushes the rings.
  // This is the paper's observed recovery procedure for the EFW deny-flood
  // failure ("restarting the firewall agent software restored
  // functionality").
  void restart();

  // Host -> wire.
  void transmit(net::Packet pkt) override;
  // Wire -> host.
  void deliver(net::Packet pkt) override;

 private:
  struct Job {
    net::Packet pkt;
    bool inbound;
    // Verdict, decided when the embedded CPU picks the frame up.
    RuleAction action = RuleAction::kDeny;
    std::uint32_t vpg_id = 0;
    bool parsed = false;
    bool management = false;
  };

  void enqueue(Job job);
  void start_next();
  void finish(Job job);
  void note_inbound_deny();

  bool is_management_frame(const net::FrameView& view) const;
  void reconfigure_guard();

  DeviceProfile profile_;
  Matcher matcher_;
  VpgTable vpgs_;
  std::unique_ptr<FloodGuard> guard_;  // null unless configured
  std::optional<net::Ipv4Address> management_peer_;

  std::deque<Job> queue_;  // FIFO across both buffers (one CPU services both)
  std::size_t rx_buffered_bytes_ = 0;
  std::size_t tx_buffered_bytes_ = 0;
  bool busy_ = false;
  bool locked_ = false;
  std::uint64_t service_epoch_ = 0;  // invalidates in-flight service on restart

  sim::Duration pending_overhead_;  // accrued arrival costs awaiting the CPU
  sim::TimePoint deny_window_start_;
  std::uint64_t deny_window_count_ = 0;

  FirewallNicStats fwstats_;
  // Registry-owned service-time histogram; null until register_metrics.
  telemetry::Histogram* service_hist_ = nullptr;
};

}  // namespace barb::firewall
