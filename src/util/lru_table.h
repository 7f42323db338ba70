// Bounded least-recently-used hash table: the one store behind the tables a
// card keeps per flow (firewall::FlowStateTable) and per source (FloodGuard).
//
// The paper's attack is a flood of minimum-size frames whose sources and
// five-tuples can all be fresh, so such a table must stay bounded and cheap
// to churn. Keys and values live inline in one node array; an open-addressing
// slot array (linear probing, backward-shift deletion) maps each key to its
// node; intrusive links order the nodes from most to least recently used, and
// freed nodes are threaded on a free list. Churn allocates nothing once the
// node array has reached the bound.
//
// What the table reports — hits, misses, which entry is evicted — depends
// only on the sequence of operations, never on the hash or the slot layout,
// so its users' outputs do not move when either changes. (FlowCache and the
// switch FIB keep their own tables because there the slot layout decides
// what gets evicted.)
//
// The slot array (2 × max_entries rounded up to a power of two, at least 16
// slots) is allocated at the first insert, so a table that never admits an
// entry holds no heap. Not thread-safe; each simulation owns its tables.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "util/assert.h"
#include "util/heap_bytes.h"

namespace barb::util {

template <typename K, typename V, typename Hash = std::hash<K>>
class LruTable {
 public:
  struct Inserted {
    V& value;
    std::optional<K> evicted;  // key of the entry a full table dropped
  };

  explicit LruTable(std::size_t max_entries)
      : max_entries_(max_entries),
        // <= 50% load at the bound keeps linear-probe chains short.
        slot_bits_(std::countr_zero(std::bit_ceil(std::max<std::size_t>(2 * max_entries, 16)))) {
    BARB_ASSERT(max_entries >= 1 && max_entries < kNil);
  }

  // The entry's value, made the most recent; null when `key` is absent.
  V* find(const K& key) {
    const std::size_t slot = find_slot(key);
    if (slot == kNoSlot) return nullptr;
    const std::uint32_t index = slots_[slot] - 1;
    touch(index);
    return &nodes_[index].value;
  }

  // Adds `key`, which must be absent (an assertion checks), as the most
  // recent entry. A full table first evicts its least recent entry.
  Inserted insert(const K& key, const V& value) {
    if (slots_.empty()) slots_.assign(slot_count(), 0);
    std::optional<K> evicted;
    if (live_ >= max_entries_) {
      evicted = nodes_[tail_].key;
      remove(slot_of(tail_));
    }
    std::uint32_t index;
    if (free_ != kNil) {
      index = free_;
      free_ = nodes_[index].next;
      nodes_[index].key = key;
      nodes_[index].value = value;
    } else {
      index = static_cast<std::uint32_t>(nodes_.size());
      nodes_.push_back(Node{key, value, kNil, kNil});
    }
    std::size_t slot = home(key);
    for (; slots_[slot] != 0; slot = (slot + 1) & mask()) {
      BARB_ASSERT_MSG(!(nodes_[slots_[slot] - 1].key == key), "key already present");
    }
    slots_[slot] = index + 1;
    push_front(index);
    ++live_;
    return Inserted{nodes_[index].value, std::move(evicted)};
  }

  // Removes `key`; false when it is absent.
  bool erase(const K& key) {
    const std::size_t slot = find_slot(key);
    if (slot == kNoSlot) return false;
    remove(slot);
    return true;
  }

  // Drops every entry and keeps the storage. Writes the slot array only when
  // the table holds entries (every removal already zeroes its slot).
  void clear() {
    if (live_ > 0) std::fill(slots_.begin(), slots_.end(), 0u);
    nodes_.clear();
    live_ = 0;
    head_ = tail_ = free_ = kNil;
  }

  std::size_t size() const { return live_; }
  // Configured slot count (allocated or not).
  std::size_t slot_count() const { return std::size_t{1} << slot_bits_; }
  // Heap held: the slot array and the node array (zero until the first
  // insert).
  std::size_t memory_bytes() const { return heap_bytes(slots_) + heap_bytes(nodes_); }

 private:
  static constexpr std::uint32_t kNil = 0xffffffffu;
  static constexpr std::size_t kNoSlot = ~std::size_t{0};

  struct Node {
    K key;
    V value;
    std::uint32_t prev;  // towards the most recent; next on the free list
    std::uint32_t next;
  };

  std::size_t mask() const { return slot_count() - 1; }

  // Fibonacci hashing: the high bits of the product mix every bit of the
  // key's hash, so keys that differ only in their high bits spread out.
  std::size_t home(const K& key) const {
    return static_cast<std::size_t>(
        (static_cast<std::uint64_t>(Hash{}(key)) * 0x9e3779b97f4a7c15ull) >>
        (64 - slot_bits_));
  }

  // Slot holding `key`, or kNoSlot (also before the slot array exists).
  std::size_t find_slot(const K& key) const {
    if (live_ == 0) return kNoSlot;
    std::size_t slot = home(key);
    while (slots_[slot] != 0) {
      if (nodes_[slots_[slot] - 1].key == key) return slot;
      slot = (slot + 1) & mask();
    }
    return kNoSlot;
  }

  // Slot pointing at live node `index`.
  std::size_t slot_of(std::uint32_t index) const {
    std::size_t slot = home(nodes_[index].key);
    while (slots_[slot] != index + 1) slot = (slot + 1) & mask();
    return slot;
  }

  // Unlinks the entry in `slot`, frees its node and closes the slot's gap.
  void remove(std::size_t slot) {
    const std::uint32_t index = slots_[slot] - 1;
    unlink(index);
    nodes_[index].next = free_;
    free_ = index;
    --live_;
    // Backward-shift deletion: pull every displaced successor in the probe
    // chain one hole closer to its home so find_slot never crosses a gap.
    slots_[slot] = 0;
    std::size_t hole = slot;
    for (std::size_t probe = (slot + 1) & mask(); slots_[probe] != 0;
         probe = (probe + 1) & mask()) {
      const std::size_t at = home(nodes_[slots_[probe] - 1].key);
      // Move iff the entry's home does not lie in the cyclic range (hole,
      // probe], i.e. it probed past the hole to get where it is.
      if (((probe - at) & mask()) >= ((probe - hole) & mask())) {
        slots_[hole] = slots_[probe];
        slots_[probe] = 0;
        hole = probe;
      }
    }
  }

  void unlink(std::uint32_t index) {
    Node& n = nodes_[index];
    (n.prev != kNil ? nodes_[n.prev].next : head_) = n.next;
    (n.next != kNil ? nodes_[n.next].prev : tail_) = n.prev;
  }

  void push_front(std::uint32_t index) {
    Node& n = nodes_[index];
    n.prev = kNil;
    n.next = head_;
    (head_ != kNil ? nodes_[head_].prev : tail_) = index;
    head_ = index;
  }

  void touch(std::uint32_t index) {
    if (index == head_) return;
    unlink(index);
    push_front(index);
  }

  std::size_t max_entries_;
  int slot_bits_;
  std::vector<Node> nodes_;            // live and free nodes, keys inline
  std::vector<std::uint32_t> slots_;   // node index + 1; 0 = empty
  std::size_t live_ = 0;
  std::uint32_t head_ = kNil;  // most recently used
  std::uint32_t tail_ = kNil;  // eviction candidate
  std::uint32_t free_ = kNil;  // free-list head
};

}  // namespace barb::util
