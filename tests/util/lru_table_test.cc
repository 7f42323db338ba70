// util::LruTable: storage allocated at the first insert, a footprint bounded
// under churn, and a seeded differential against the std::list +
// std::unordered_map reference (tests/testutil/reference_lru.h).
#include "util/lru_table.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "sim/random.h"
#include "testutil/reference_lru.h"

namespace barb::util {
namespace {

// Four home slots for every key: long probe chains, so every erase and
// eviction exercises backward-shift deletion.
struct CollidingHash {
  std::size_t operator()(std::uint64_t key) const { return key & 3; }
};

TEST(LruTable, AllocatesAtFirstInsert) {
  LruTable<std::uint64_t, std::uint64_t> table(4096);
  EXPECT_EQ(table.slot_count(), 8192u);
  EXPECT_EQ(table.memory_bytes(), 0u);
  EXPECT_EQ(table.find(1), nullptr);
  EXPECT_FALSE(table.erase(1));
  table.clear();
  EXPECT_EQ(table.memory_bytes(), 0u);

  auto inserted = table.insert(1, 10);
  EXPECT_EQ(inserted.value, 10u);
  EXPECT_FALSE(inserted.evicted.has_value());
  EXPECT_GE(table.memory_bytes(), 8192 * sizeof(std::uint32_t));
  ASSERT_NE(table.find(1), nullptr);
  EXPECT_EQ(*table.find(1), 10u);
  EXPECT_EQ((LruTable<int, int>(1).slot_count()), 16u);
}

TEST(LruTable, EvictsTheLeastRecentlyFound) {
  LruTable<std::uint64_t, std::uint64_t> table(3);
  table.insert(1, 1);
  table.insert(2, 2);
  table.insert(3, 3);
  ASSERT_NE(table.find(1), nullptr);  // 2 is now the least recent
  EXPECT_EQ(table.insert(4, 4).evicted, std::optional<std::uint64_t>(2));
  EXPECT_EQ(table.insert(5, 5).evicted, std::optional<std::uint64_t>(3));
  EXPECT_EQ(table.size(), 3u);
  EXPECT_EQ(table.find(2), nullptr);
}

TEST(LruTable, ChurnPastTheBoundAllocatesNothing) {
  LruTable<std::uint64_t, std::uint64_t> table(64);
  for (std::uint64_t k = 0; k < 64; ++k) table.insert(k, k);
  const std::size_t full = table.memory_bytes();
  for (std::uint64_t k = 64; k < 100000; ++k) {
    EXPECT_EQ(table.insert(k, k).evicted, std::optional<std::uint64_t>(k - 64));
  }
  EXPECT_EQ(table.size(), 64u);
  EXPECT_EQ(table.memory_bytes(), full);
  table.clear();
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.memory_bytes(), full);
}

template <typename Hash>
void run_differential(std::size_t bound, std::uint64_t universe, std::uint64_t seed) {
  SCOPED_TRACE(testing::Message() << "bound " << bound << ", universe " << universe);
  LruTable<std::uint64_t, std::uint64_t, Hash> table(bound);
  testutil::reference::LruTable<std::uint64_t, std::uint64_t> model(bound);
  sim::Random rng(seed);
  for (int op = 0; op < 100000; ++op) {
    const std::uint64_t key = rng.uniform(universe) * 0x10001;  // spread the bits
    const std::uint64_t pick = rng.uniform(1000);
    if (pick < 400 || (pick < 800 && model.contains(key))) {
      std::uint64_t* got = table.find(key);
      std::uint64_t* want = model.find(key);
      ASSERT_EQ(got == nullptr, want == nullptr) << "find, op " << op;
      if (got != nullptr) {
        ASSERT_EQ(*got, *want) << "op " << op;
        ++*got;
        ++*want;
      }
    } else if (pick < 800) {
      const std::uint64_t value = rng.next_u64();
      auto inserted = table.insert(key, value);
      ASSERT_EQ(inserted.value, value);
      ASSERT_EQ(inserted.evicted, model.insert(key, value)) << "insert, op " << op;
    } else if (pick < 999) {
      ASSERT_EQ(table.erase(key), model.erase(key)) << "erase, op " << op;
    } else {
      table.clear();
      model.clear();
    }
    ASSERT_EQ(table.size(), model.size()) << "op " << op;
  }
}

TEST(LruTable, MatchesReferenceModel) {
  for (const std::size_t bound : {1, 2, 4, 64, 4096}) {
    // Key universes below the bound (no evictions) and well above it.
    for (const std::uint64_t universe : {std::max<std::size_t>(1, bound / 2), 4 * bound + 3}) {
      run_differential<std::hash<std::uint64_t>>(bound, universe, 7 + bound + universe);
      run_differential<CollidingHash>(bound, universe, 11 + bound + universe);
    }
  }
}

}  // namespace
}  // namespace barb::util
