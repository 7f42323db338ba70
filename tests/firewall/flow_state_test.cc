#include "firewall/flow_state.h"

#include <gtest/gtest.h>

#include "core/experiments.h"
#include "sim/random.h"
#include "testutil/reference_lru.h"

namespace barb::firewall {
namespace {

net::FiveTuple tuple(std::uint16_t src_port, std::uint16_t dst_port = 80) {
  net::FiveTuple t;
  t.src = net::Ipv4Address(10, 0, 0, 1);
  t.dst = net::Ipv4Address(10, 0, 0, 2);
  t.src_port = src_port;
  t.dst_port = dst_port;
  t.protocol = 6;
  return t;
}

TEST(FlowState, MissThenInsertThenHit) {
  FlowStateTable table;
  const auto t0 = sim::TimePoint::origin();
  EXPECT_FALSE(table.lookup(tuple(1000), t0));
  table.insert(tuple(1000), t0);
  EXPECT_TRUE(table.lookup(tuple(1000), t0));
  EXPECT_EQ(table.stats().hits, 1u);
  EXPECT_EQ(table.stats().misses, 1u);
}

TEST(FlowState, BothDirectionsMatchOneEntry) {
  FlowStateTable table;
  const auto t0 = sim::TimePoint::origin();
  table.insert(tuple(1000), t0);
  EXPECT_TRUE(table.lookup(tuple(1000).reversed(), t0));
  EXPECT_EQ(table.size(), 1u);
  // Inserting the reverse direction does not duplicate.
  table.insert(tuple(1000).reversed(), t0);
  EXPECT_EQ(table.size(), 1u);
}

TEST(FlowState, DistinctFlowsDistinctEntries) {
  FlowStateTable table;
  const auto t0 = sim::TimePoint::origin();
  table.insert(tuple(1000), t0);
  table.insert(tuple(1001), t0);
  EXPECT_EQ(table.size(), 2u);
  EXPECT_FALSE(table.lookup(tuple(1002), t0));
}

TEST(FlowState, IdleEntriesExpire) {
  FlowStateConfig cfg;
  cfg.idle_timeout = sim::Duration::seconds(10);
  FlowStateTable table(cfg);
  const auto t0 = sim::TimePoint::origin();
  table.insert(tuple(1000), t0);
  EXPECT_TRUE(table.lookup(tuple(1000), t0 + sim::Duration::seconds(9)));
  // The hit refreshed it; 9 more seconds is still alive.
  EXPECT_TRUE(table.lookup(tuple(1000), t0 + sim::Duration::seconds(18)));
  // 11 idle seconds kills it.
  EXPECT_FALSE(table.lookup(tuple(1000), t0 + sim::Duration::seconds(29)));
  EXPECT_EQ(table.stats().expirations, 1u);
}

TEST(FlowState, LruBoundsTheTable) {
  FlowStateConfig cfg;
  cfg.max_entries = 4;
  FlowStateTable table(cfg);
  const auto t0 = sim::TimePoint::origin();
  for (std::uint16_t p = 0; p < 10; ++p) table.insert(tuple(1000 + p), t0);
  EXPECT_EQ(table.size(), 4u);
  EXPECT_EQ(table.stats().evictions, 6u);
  // The most recent entries survived.
  EXPECT_TRUE(table.lookup(tuple(1009), t0));
  EXPECT_FALSE(table.lookup(tuple(1000), t0));
}

TEST(FlowState, ClearEmptiesEverything) {
  FlowStateTable table;
  table.insert(tuple(1), sim::TimePoint::origin());
  table.clear();
  EXPECT_EQ(table.size(), 0u);
  EXPECT_FALSE(table.lookup(tuple(1), sim::TimePoint::origin()));
}

TEST(FlowState, AllocatesSlotsOnFirstInsert) {
  FlowStateConfig cfg;
  cfg.max_entries = 4;
  cfg.idle_timeout = sim::Duration::seconds(10);
  FlowStateTable table(cfg);
  const auto t0 = sim::TimePoint::origin();
  EXPECT_EQ(table.memory_bytes(), 0u);
  // Lookups on a never-used table miss and allocate nothing; neither does a
  // clear() (a policy push or restart on a stateless card).
  EXPECT_FALSE(table.lookup(tuple(1000), t0));
  EXPECT_FALSE(table.lookup(tuple(1001), t0));
  EXPECT_EQ(table.stats().misses, 2u);
  table.clear();
  EXPECT_EQ(table.memory_bytes(), 0u);

  table.insert(tuple(1000), t0);
  // The slot array plus one flow node.
  const std::size_t slot_bytes = table.slot_count() * sizeof(std::uint32_t);
  EXPECT_EQ(table.slot_count(), 16u);
  EXPECT_GT(table.memory_bytes(), slot_bytes);
  EXPECT_LT(table.memory_bytes(), slot_bytes + 64);
  EXPECT_TRUE(table.lookup(tuple(1000), t0));

  // Insert, hit and expiry work after a clear().
  table.clear();
  EXPECT_EQ(table.size(), 0u);
  EXPECT_FALSE(table.lookup(tuple(1000), t0));
  table.insert(tuple(1002), t0);
  EXPECT_TRUE(table.lookup(tuple(1002).reversed(), t0 + sim::Duration::seconds(5)));
  EXPECT_FALSE(table.lookup(tuple(1002), t0 + sim::Duration::seconds(16)));
  EXPECT_EQ(table.stats().expirations, 1u);

  // LRU churn past the bound: the footprint stops at the bound.
  for (std::uint16_t p = 0; p < 64; ++p) table.insert(tuple(2000 + p), t0);
  EXPECT_EQ(table.size(), 4u);
  const std::size_t full = table.memory_bytes();
  for (std::uint16_t p = 0; p < 4096; ++p) table.insert(tuple(3000 + p), t0);
  EXPECT_GT(table.stats().evictions, 4000u);
  EXPECT_EQ(table.memory_bytes(), full);
  EXPECT_LT(full, slot_bytes + 4 * 64);
}

// FlowStateTable's logic over the reference LRU table.
class ReferenceFlowState {
 public:
  explicit ReferenceFlowState(FlowStateConfig config)
      : config_(config), flows_(config.max_entries) {}

  bool lookup(const net::FiveTuple& tuple, sim::TimePoint now) {
    const net::FiveTuple key = canonical(tuple);
    sim::TimePoint* last_seen = flows_.find(key);
    if (last_seen == nullptr) {
      ++stats.misses;
      return false;
    }
    if (now - *last_seen == config_.idle_timeout) ++lookups_at_timeout;
    if (now - *last_seen > config_.idle_timeout) {
      flows_.erase(key);
      ++stats.expirations;
      ++stats.misses;
      return false;
    }
    *last_seen = now;
    ++stats.hits;
    return true;
  }

  void insert(const net::FiveTuple& tuple, sim::TimePoint now) {
    const net::FiveTuple key = canonical(tuple);
    if (sim::TimePoint* last_seen = flows_.find(key)) {
      *last_seen = now;
      return;
    }
    if (flows_.insert(key, now)) ++stats.evictions;
    ++stats.inserts;
  }

  void clear() { flows_.clear(); }
  std::size_t size() const { return flows_.size(); }

  FlowStateStats stats;
  std::uint64_t lookups_at_timeout = 0;  // idle for exactly idle_timeout

 private:
  static net::FiveTuple canonical(const net::FiveTuple& t) {
    const bool ordered = t.src.value() < t.dst.value() ||
                         (t.src == t.dst && t.src_port <= t.dst_port);
    return ordered ? t : t.reversed();
  }

  FlowStateConfig config_;
  testutil::reference::LruTable<net::FiveTuple, sim::TimePoint> flows_;
};

void expect_same_stats(const FlowStateStats& got, const FlowStateStats& want, int op) {
  ASSERT_EQ(got.hits, want.hits) << "op " << op;
  ASSERT_EQ(got.misses, want.misses) << "op " << op;
  ASSERT_EQ(got.inserts, want.inserts) << "op " << op;
  ASSERT_EQ(got.evictions, want.evictions) << "op " << op;
  ASSERT_EQ(got.expirations, want.expirations) << "op " << op;
}

// Seeded differential against the reference: both directions of each flow,
// whole-second clock steps so lookups land exactly on the idle timeout as
// well as either side of it, bounds below and above the 272 canonical flows.
TEST(FlowState, MatchesReferenceModel) {
  std::uint64_t hits = 0;
  std::uint64_t expirations = 0;
  std::uint64_t lookups_at_timeout = 0;
  for (const std::size_t bound : {1, 4, 64, 1024}) {
    SCOPED_TRACE(testing::Message() << "max_entries " << bound);
    FlowStateConfig cfg;
    cfg.max_entries = bound;
    cfg.idle_timeout = sim::Duration::seconds(10);
    FlowStateTable table(cfg);
    ReferenceFlowState model(cfg);
    sim::Random rng(bound);
    sim::TimePoint now = sim::TimePoint::origin();
    for (int op = 0; op < 100000; ++op) {
      if (rng.uniform(64) == 0) now = now + sim::Duration::seconds(rng.uniform(4));
      net::FiveTuple t;
      t.src = net::Ipv4Address(10, 0, 0, static_cast<std::uint8_t>(1 + rng.uniform(4)));
      t.dst = net::Ipv4Address(10, 0, 0, static_cast<std::uint8_t>(1 + rng.uniform(4)));
      t.src_port = static_cast<std::uint16_t>(1000 + rng.uniform(4));
      t.dst_port = static_cast<std::uint16_t>(1000 + rng.uniform(4));
      t.protocol = rng.uniform(2) == 0 ? 6 : 17;
      const std::uint64_t pick = rng.uniform(1000);
      if (pick < 700) {
        ASSERT_EQ(table.lookup(t, now), model.lookup(t, now)) << "op " << op;
      } else if (pick < 999) {
        table.insert(t, now);
        model.insert(t, now);
      } else {
        table.clear();
        model.clear();
      }
      ASSERT_EQ(table.size(), model.size()) << "op " << op;
      expect_same_stats(table.stats(), model.stats, op);
    }
    hits += table.stats().hits;
    expirations += table.stats().expirations;
    lookups_at_timeout += model.lookups_at_timeout;
  }
  // The small bounds evict before anything idles out; the large ones expire.
  EXPECT_GT(hits, 0u);
  EXPECT_GT(expirations, 0u);
  EXPECT_GT(lookups_at_timeout, 0u);
}

// Integration: an EFW on the stateful backend erases the depth penalty for
// legitimate traffic.
TEST(FlowStateIntegration, StatefulNicIsDepthInsensitive) {
  core::MeasurementOptions opt;
  opt.window = sim::Duration::milliseconds(600);
  opt.repetitions = 1;

  core::TestbedConfig cfg;
  cfg.firewall = core::FirewallKind::kEfw;
  cfg.action_rule_depth = 64;
  const double stateless = core::measure_available_bandwidth(cfg, opt).mean();

  cfg.match_backend = MatchBackend::kLinearStateful;
  const double stateful = core::measure_available_bandwidth(cfg, opt).mean();

  EXPECT_LT(stateless, 60.0);  // the paper's 64-rule penalty
  EXPECT_GT(stateful, 90.0);   // erased by flow state
}

}  // namespace
}  // namespace barb::firewall
