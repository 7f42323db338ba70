// Flow state table: stateful packet filtering in the style of OpenBSD pf
// (Hartmeier, cited by the paper as the stateful software comparator).
//
// The first packet of a flow walks the rule-set; on an allow verdict the
// flow's 5-tuple enters the table and subsequent packets match with one
// O(1) lookup instead of the linear walk. Entries expire after an idle
// timeout and the table is LRU-bounded — a flood of unique tuples must not
// exhaust memory (it instead churns the table and gains nothing, which is
// exactly why statefulness repairs Figure 2's depth penalty but not
// Figure 3's flood vulnerability).
//
// Storage: a util::LruTable keyed by the direction-insensitive tuple, holding
// each flow's last-seen time inline (32 B per node, 4 B per slot). Its slot
// array is allocated at the first insert: a card that never admits a flow
// (the paper's stateless EFW/ADF) holds no table at all.
#pragma once

#include <cstdint>

#include "net/five_tuple.h"
#include "sim/time.h"
#include "util/lru_table.h"

namespace barb::firewall {

struct FlowStateConfig {
  std::size_t max_entries = 8192;
  sim::Duration idle_timeout = sim::Duration::seconds(60);
};

struct FlowStateStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t inserts = 0;
  std::uint64_t evictions = 0;
  std::uint64_t expirations = 0;
};

class FlowStateTable {
 public:
  explicit FlowStateTable(FlowStateConfig config = {})
      : config_(config), flows_(config.max_entries) {}

  // True if the flow (in either direction) has live state; refreshes it. An
  // entry idle for longer than the timeout is dropped and misses.
  bool lookup(const net::FiveTuple& tuple, sim::TimePoint now) {
    const net::FiveTuple key = canonical(tuple);
    sim::TimePoint* last_seen = flows_.find(key);
    if (last_seen == nullptr) {
      ++stats_.misses;
      return false;
    }
    if (now - *last_seen > config_.idle_timeout) {
      flows_.erase(key);
      ++stats_.expirations;
      ++stats_.misses;
      return false;
    }
    *last_seen = now;
    ++stats_.hits;
    return true;
  }

  // Registers an allowed flow (idempotent; refreshes existing state).
  void insert(const net::FiveTuple& tuple, sim::TimePoint now) {
    const net::FiveTuple key = canonical(tuple);
    if (sim::TimePoint* last_seen = flows_.find(key)) {
      *last_seen = now;
      return;
    }
    if (flows_.insert(key, now).evicted) ++stats_.evictions;
    ++stats_.inserts;
  }

  // Drops every entry. Runs on each policy install and card restart, so it
  // touches the slot array only when the table holds entries.
  void clear() { flows_.clear(); }
  std::size_t size() const { return flows_.size(); }
  // Configured slot count (allocated or not).
  std::size_t slot_count() const { return flows_.slot_count(); }
  const FlowStateStats& stats() const { return stats_; }

  // Heap footprint: slot array + flow nodes (zero until the first insert).
  std::size_t memory_bytes() const { return flows_.memory_bytes(); }

 private:
  // Direction-insensitive canonical form.
  static net::FiveTuple canonical(const net::FiveTuple& tuple) {
    const bool ordered =
        tuple.src.value() < tuple.dst.value() ||
        (tuple.src == tuple.dst && tuple.src_port <= tuple.dst_port);
    return ordered ? tuple : tuple.reversed();
  }

  FlowStateConfig config_;
  util::LruTable<net::FiveTuple, sim::TimePoint> flows_;  // value: last seen
  FlowStateStats stats_;
};

}  // namespace barb::firewall
