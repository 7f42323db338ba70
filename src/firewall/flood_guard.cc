#include "firewall/flood_guard.h"

#include <algorithm>

namespace barb::firewall {

void FloodGuard::apply_rates() {
  per_source_rate_ = config_.per_source_rate;
  aggregate_rate_ = config_.aggregate_rate;
  aggregate_ = TokenBucket(std::max(1.0, aggregate_rate_), config_.aggregate_burst);
  new_sources_ =
      TokenBucket(std::max(1.0, config_.new_source_rate), config_.new_source_burst);
}

void FloodGuard::reconfigure_for_capacity(double walk_frames_per_sec) {
  per_source_rate_ = std::min(config_.per_source_rate,
                              walk_frames_per_sec * config_.per_source_capacity_share);
  aggregate_rate_ = std::min(config_.aggregate_rate,
                             walk_frames_per_sec * config_.aggregate_capacity_share);
  aggregate_ = TokenBucket(std::max(1.0, aggregate_rate_), config_.aggregate_burst);
  new_sources_ =
      TokenBucket(std::max(1.0, config_.new_source_rate), config_.new_source_burst);
  sources_.clear();
}

bool FloodGuard::admit(const net::FrameView& view, sim::TimePoint now) {
  ++stats_.screened;
  if (!view.ip) return true;  // non-IP frames are not rate-limited here

  const std::uint32_t source = view.ip->src.value();
  SourceEntry* found = sources_.find(source);
  if (found == nullptr) {
    // First contact: spend a new-source token before tracking it. This is
    // what blunts spoofed floods — every spoofed packet is "new".
    if (!new_sources_.try_consume(now)) {
      ++stats_.new_source_drops;
      return false;
    }
    TokenBucket bucket(std::max(1.0, per_source_rate_), config_.per_source_burst);
    // Burn idle accrual so a brand-new source starts with its burst only.
    (void)bucket.tokens(now);
    auto inserted = sources_.insert(source, SourceEntry{bucket});
    if (inserted.evicted) ++stats_.evictions;
    found = &inserted.value;
  }

  SourceEntry& entry = *found;
  if (now < entry.penalized_until) {
    ++stats_.penalized_drops;
    return false;
  }
  if (!entry.bucket.try_consume(now)) {
    ++stats_.per_source_drops;
    if (now - entry.violation_window_start >= sim::Duration::seconds(1)) {
      entry.violation_window_start = now;
      entry.violations = 0;
    }
    if (++entry.violations > config_.penalty_threshold) {
      entry.penalized_until = now + config_.penalty_duration;
      entry.violations = 0;
      ++stats_.penalties_imposed;
    }
    return false;
  }
  if (!aggregate_.try_consume(now)) {
    ++stats_.aggregate_drops;
    return false;
  }
  return true;
}

}  // namespace barb::firewall
