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
// Storage: each live flow's canonical tuple is interned once in a slab
// (net::FiveTupleSlab) and referenced by a 32-bit handle from (a) an
// open-addressing slot array and (b) intrusive LRU links — three flat
// vectors total, zero allocations per flow in steady state. The previous
// implementation paid an unordered_map node plus a std::list node per flow
// (two heap allocations and two tuple copies); under a spoofed flood that
// churn was the table's dominant cost. Semantics (hit/miss/expire/evict
// order and counters) are unchanged. The slot array is allocated once, at the
// first insert, and never grows after: a card that never admits a flow (the
// paper's stateless EFW/ADF) holds no table at all.
#pragma once

#include <cstdint>
#include <vector>

#include "net/five_tuple.h"
#include "net/intern.h"
#include "sim/time.h"

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
  explicit FlowStateTable(FlowStateConfig config = {});

  // True if the flow (in either direction) has live state; refreshes it.
  bool lookup(const net::FiveTuple& tuple, sim::TimePoint now);

  // Registers an allowed flow (idempotent; refreshes existing state).
  void insert(const net::FiveTuple& tuple, sim::TimePoint now);

  // Drops every entry. Runs on each policy install and card restart, so it
  // touches the slot array only when the table holds entries.
  void clear();
  std::size_t size() const { return live_; }
  // Configured slot count (allocated or not).
  std::size_t slot_count() const { return slot_mask_ + 1; }
  const FlowStateStats& stats() const { return stats_; }

  // Heap footprint: slot array + tuple slab + LRU/timestamp nodes (zero
  // until the first insert).
  std::size_t memory_bytes() const {
    return slots_.capacity() * sizeof(std::uint32_t) + tuples_.memory_bytes() +
           nodes_.capacity() * sizeof(Node);
  }

 private:
  static constexpr std::uint32_t kNil = 0xffffffffu;

  // Direction-insensitive canonical form.
  static net::FiveTuple canonical(const net::FiveTuple& tuple) {
    const bool ordered =
        tuple.src.value() < tuple.dst.value() ||
        (tuple.src == tuple.dst && tuple.src_port <= tuple.dst_port);
    return ordered ? tuple : tuple.reversed();
  }

  struct Node {
    sim::TimePoint last_seen;
    std::uint32_t prev = kNil;
    std::uint32_t next = kNil;
  };

  std::size_t home_slot(const net::FiveTuple& tuple) const;
  // Slot holding `tuple`, or slots_.size() if absent (also when the slot
  // array is not allocated yet).
  std::size_t find_slot(const net::FiveTuple& tuple) const;
  // Backward-shift deletion keeping linear-probe chains contiguous.
  void erase_slot(std::size_t slot);
  void remove(std::size_t slot, std::uint32_t handle);

  void lru_unlink(std::uint32_t handle);
  void lru_push_front(std::uint32_t handle);

  FlowStateConfig config_;
  net::FiveTupleSlab tuples_;
  std::vector<Node> nodes_;            // indexed by tuple handle
  std::vector<std::uint32_t> slots_;   // handle + 1; 0 = empty; sized at first insert
  std::size_t slot_mask_ = 0;
  std::size_t live_ = 0;
  std::uint32_t lru_head_ = kNil;      // most recently used
  std::uint32_t lru_tail_ = kNil;      // eviction candidate
  FlowStateStats stats_;
};

}  // namespace barb::firewall
