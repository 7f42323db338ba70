// Five-tuple flow cache: open-addressing robin-hood table in front of the
// compiled classifier.
//
// The first frame of a flow pays the classification (compiled-tree) cost and
// its verdict is cached under the exact five-tuple; subsequent frames of the
// flow resolve with one hash + compare. This is what makes rule depth stop
// mattering for established traffic — and what a spoofed-source flood
// defeats, since every flood frame carries a fresh tuple and therefore
// misses, pays the tree walk, and evicts a live entry (cache thrash; see
// bench/fig3b_compiled).
//
// Design points:
//  * Fixed capacity, power-of-two slots, bounded probe distance. Robin-hood
//    displacement keeps probe sequences short; an insert whose displacement
//    chain exceeds the probe bound drops the carried (poorest) entry — the
//    eviction policy. The slot array is allocated once, at the first insert,
//    and never grows after, so a tuple flood churns it instead of exhausting
//    memory — and a card whose backend never caches a verdict holds none.
//  * Verdicts of every action (allow, deny, vpg) are cached: the card's
//    cost is classification, not the verdict's sign. VPG-encapsulated
//    frames never enter the cache (their match is by id, already O(1)).
//  * Invalidation is by generation: a policy push bumps the generation and
//    every existing entry goes stale at once (checked lazily on lookup,
//    reclaimed lazily on insert) — no O(capacity) flush on the push path.
#pragma once

#include <cstdint>
#include <vector>

#include "firewall/rule_set.h"
#include "net/five_tuple.h"

namespace barb::firewall {

struct FlowCacheConfig {
  std::size_t capacity = 8192;  // rounded up to a power of two slots
  int max_probe = 16;           // probe-distance bound (also the scan cost cap)
};

struct FlowCacheStats {
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t inserts = 0;
  std::uint64_t evictions = 0;      // live entries dropped by displacement
  std::uint64_t stale_hits = 0;     // lookups that found an old-generation entry
  std::uint64_t invalidations = 0;  // generation bumps (policy pushes)
};

class FlowCache {
 public:
  explicit FlowCache(FlowCacheConfig config = {});

  // True and *out filled if the exact tuple has a current-generation entry.
  bool lookup(const net::FiveTuple& tuple, MatchResult* out);

  // Caches a verdict for the exact tuple (idempotent; refreshes existing).
  void insert(const net::FiveTuple& tuple, const MatchResult& verdict);

  // Policy push: all cached verdicts may be wrong now. O(1).
  void bump_generation() {
    ++generation_;
    ++stats_.invalidations;
    live_ = 0;
  }

  std::uint64_t generation() const { return generation_; }
  // Configured slot count (allocated or not).
  std::size_t capacity() const { return mask_ + 1; }
  // Heap held: the slot array, zero until the first insert.
  std::size_t memory_bytes() const { return slots_.capacity() * slot_bytes(); }
  static constexpr std::size_t slot_bytes() { return sizeof(Slot); }
  // Current-generation entries (approximate upper bound after a bump: stale
  // entries are only discounted as they are found and reclaimed).
  std::size_t live_entries() const { return live_; }
  const FlowCacheStats& stats() const { return stats_; }

 private:
  struct Slot {
    net::FiveTuple key;
    MatchResult verdict;
    std::uint64_t generation = 0;
    std::uint8_t distance = 0;  // probe distance from home slot
    bool used = false;
  };

  std::size_t home(const net::FiveTuple& tuple) const {
    return std::hash<net::FiveTuple>{}(tuple) & mask_;
  }

  FlowCacheConfig config_;
  std::vector<Slot> slots_;  // empty until the first insert
  std::size_t mask_ = 0;
  std::uint64_t generation_ = 1;
  std::size_t live_ = 0;
  FlowCacheStats stats_;
};

}  // namespace barb::firewall
