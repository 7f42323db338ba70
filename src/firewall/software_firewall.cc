#include "firewall/software_firewall.h"

#include <utility>

#include "util/heap_bytes.h"

namespace barb::firewall {

SoftwareFirewall::SoftwareFirewall(sim::Simulation& sim, SoftwareFirewallConfig config)
    : sim_(sim), config_(config) {
  rules_.set_default_action(RuleAction::kAllow);
}

void SoftwareFirewall::filter(stack::FilterDirection /*direction*/, net::Packet pkt,
                              Resume resume) {
  if (queue_.size() >= config_.backlog) {
    ++stats_.backlog_drops;
    return;
  }
  queue_.push_back(Job{std::move(pkt), std::move(resume)});
  if (!busy_) start_next();
}

void SoftwareFirewall::start_next() {
  if (busy_ || queue_.empty()) return;
  busy_ = true;

  const Job& job = queue_.front();
  sim::Duration service = config_.per_packet;
  // Cached parse shared with the rest of the frame's path through the host.
  const net::FrameView* view = job.pkt.view();
  MatchResult mr;
  mr.action = RuleAction::kAllow;
  if (view != nullptr) {
    mr = rules_.match(*view);
    service += config_.per_rule * static_cast<std::int64_t>(mr.rules_traversed);
  }
  stats_.cpu_busy += service;
  if (service_hist_ != nullptr) {
    service_hist_->record(static_cast<std::uint64_t>(service.ns()));
  }

  sim_.schedule(service, [this, action = mr.action] {
    busy_ = false;
    Job job = std::move(queue_.front());
    queue_.pop_front();
    // iptables has no VPG concept; a kVpg verdict cannot occur here because
    // policies compiled for hosts never contain VPG rules. Treat defensively
    // as deny.
    if (action == RuleAction::kAllow) {
      ++stats_.allowed;
      job.resume(std::move(job.pkt));
    } else {
      ++stats_.denied;
    }
    start_next();
  });
}

void SoftwareFirewall::register_metrics(telemetry::MetricRegistry& registry,
                                        const std::string& labels) {
  registry.counter_fn("swfw.allowed", labels,
                      [this] { return static_cast<double>(stats_.allowed); });
  registry.counter_fn("swfw.denied", labels,
                      [this] { return static_cast<double>(stats_.denied); });
  registry.counter_fn("swfw.backlog_drops", labels,
                      [this] { return static_cast<double>(stats_.backlog_drops); });
  registry.counter_fn("swfw.cpu_busy_seconds", labels,
                      [this] { return stats_.cpu_busy.to_seconds(); });
  registry.gauge("swfw.queue_depth", labels,
                 [this] { return static_cast<double>(queue_.size()); });
  service_hist_ = &registry.histogram("swfw.service_time_ns", labels);
}

std::size_t SoftwareFirewall::memory_bytes() const {
  return rules_.memory_bytes() + util::heap_bytes(queue_);
}

}  // namespace barb::firewall
