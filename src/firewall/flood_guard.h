// FloodGuard: the flood-tolerant NIC front-end the paper's conclusion asks
// for ("we hope this research encourages the development of new embedded
// firewall devices that have sufficient tolerance to simple packet flood
// attacks").
//
// The vulnerability's anatomy (DESIGN.md): the expensive rule walk runs on
// every frame, so an attacker buys firewall CPU at minimum-frame prices.
// FloodGuard screens arrivals *before* the rule walk at near-arrival cost,
// with three mechanisms:
//
//  * a per-source token bucket (LRU-bounded table) caps any single source,
//  * a new-source bucket throttles first-contact admissions — the defense
//    against spoofed floods, where every packet claims a fresh address, and
//  * an aggregate admission bucket backstops the rule walk.
//
// The guard is capacity-aware: the card knows its own per-frame walk cost
// for the installed rule-set and scales the buckets so admitted traffic can
// never saturate the embedded CPU (reconfigure_for_capacity, called by the
// NIC whenever policy changes).
//
// Honest limits, shown by bench/extension_flood_guard: a single-source flood
// is neutralized outright; a spoofed flood is reduced to the new-source
// budget, preserving most legitimate bandwidth at a modest cost to deep
// rule-set throughput (the per-source cap binds below the stock card's own
// ceiling there).
#pragma once

#include <cstdint>

#include "net/frame_view.h"
#include "sim/time.h"
#include "util/lru_table.h"
#include "util/token_bucket.h"

namespace barb::firewall {

// A card screens with FloodGuard only when one is configured
// (NicSpec::flood_guard, TestbedConfig::flood_guard).
struct FloodGuardConfig {
  // Ceilings; reconfigure_for_capacity lowers the effective rates so that
  // admitted * walk_cost stays below the fractions given here.
  double per_source_rate = 12000.0;
  double per_source_burst = 400.0;
  double new_source_rate = 1000.0;  // first-contact admissions per second
  double new_source_burst = 100.0;
  double aggregate_rate = 20000.0;
  double aggregate_burst = 500.0;
  // Capacity fractions: a single source may consume at most this share of
  // the rule-walk capacity; all admitted traffic at most the aggregate share.
  double per_source_capacity_share = 0.55;
  double aggregate_capacity_share = 0.85;
  // Penalty box: a source whose per-source violations exceed the threshold
  // within one second is blacklisted for the penalty duration (its frames
  // then cost only the screen, not the walk). Legitimate ACK-clocked TCP
  // cannot overrun its bucket by thousands per second; a flood must.
  std::uint64_t penalty_threshold = 5000;
  sim::Duration penalty_duration = sim::Duration::seconds(5);
  // Screening cost per arriving frame on the embedded CPU.
  sim::Duration screen_cost = sim::Duration::microseconds(2);
  // Bounded source table (LRU eviction) — the guard itself must not be a
  // memory-exhaustion target. Its slot array (2 × max_sources slots, 32 KiB
  // by default) is allocated by the first source admitted.
  std::size_t max_sources = 4096;
};

struct FloodGuardStats {
  std::uint64_t screened = 0;
  std::uint64_t per_source_drops = 0;
  std::uint64_t new_source_drops = 0;
  std::uint64_t aggregate_drops = 0;
  std::uint64_t penalized_drops = 0;
  std::uint64_t penalties_imposed = 0;
  std::uint64_t evictions = 0;
};

class FloodGuard {
 public:
  explicit FloodGuard(FloodGuardConfig config)
      : config_(config), sources_(config.max_sources) {
    apply_rates();
  }

  const FloodGuardConfig& config() const { return config_; }
  const FloodGuardStats& stats() const { return stats_; }
  std::size_t tracked_sources() const { return sources_.size(); }
  // Heap held by the per-source table.
  std::size_t memory_bytes() const { return sources_.memory_bytes(); }
  double effective_per_source_rate() const { return per_source_rate_; }
  double effective_aggregate_rate() const { return aggregate_rate_; }

  // Rescales admission to the card's rule-walk capacity (frames/s the walk
  // can sustain for minimum-size frames). Clears learned source state.
  void reconfigure_for_capacity(double walk_frames_per_sec);

  // Returns true if the frame may proceed to the rule walk.
  bool admit(const net::FrameView& view, sim::TimePoint now);

 private:
  struct SourceEntry {
    TokenBucket bucket;
    std::uint64_t violations = 0;
    sim::TimePoint violation_window_start{};
    sim::TimePoint penalized_until{};
  };

  void apply_rates();

  FloodGuardConfig config_;
  double per_source_rate_ = 0;
  double aggregate_rate_ = 0;
  TokenBucket aggregate_{1.0, 1.0};
  TokenBucket new_sources_{1.0, 1.0};
  util::LruTable<std::uint32_t, SourceEntry> sources_;  // keyed by IPv4 source
  FloodGuardStats stats_;
};

}  // namespace barb::firewall
