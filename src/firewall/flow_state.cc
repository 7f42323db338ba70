#include "firewall/flow_state.h"

#include <algorithm>
#include <bit>
#include <functional>

#include "util/assert.h"

namespace barb::firewall {

FlowStateTable::FlowStateTable(FlowStateConfig config)
    : config_(config),
      // <= 50% load at the LRU bound keeps linear-probe chains short.
      slot_mask_(std::bit_ceil(std::max<std::size_t>(2 * config_.max_entries, 16)) - 1) {}

std::size_t FlowStateTable::home_slot(const net::FiveTuple& tuple) const {
  return std::hash<net::FiveTuple>{}(tuple) & slot_mask_;
}

std::size_t FlowStateTable::find_slot(const net::FiveTuple& tuple) const {
  if (live_ == 0) return slots_.size();
  std::size_t slot = home_slot(tuple);
  while (slots_[slot] != 0) {
    if (tuples_.get(slots_[slot] - 1) == tuple) return slot;
    slot = (slot + 1) & slot_mask_;
  }
  return slots_.size();
}

void FlowStateTable::erase_slot(std::size_t slot) {
  // Backward-shift deletion: pull every displaced successor in the probe
  // chain one hole closer to its home so find_slot never crosses a gap.
  slots_[slot] = 0;
  std::size_t hole = slot;
  std::size_t probe = slot;
  while (true) {
    probe = (probe + 1) & slot_mask_;
    if (slots_[probe] == 0) return;
    const std::size_t home = home_slot(tuples_.get(slots_[probe] - 1));
    // Move iff the entry's home does not lie in the cyclic range (hole,
    // probe] — i.e. it probed past the hole to get where it is.
    if (((probe - home) & slot_mask_) >= ((probe - hole) & slot_mask_)) {
      slots_[hole] = slots_[probe];
      slots_[probe] = 0;
      hole = probe;
    }
  }
}

void FlowStateTable::lru_unlink(std::uint32_t handle) {
  Node& n = nodes_[handle];
  if (n.prev != kNil) {
    nodes_[n.prev].next = n.next;
  } else {
    lru_head_ = n.next;
  }
  if (n.next != kNil) {
    nodes_[n.next].prev = n.prev;
  } else {
    lru_tail_ = n.prev;
  }
  n.prev = n.next = kNil;
}

void FlowStateTable::lru_push_front(std::uint32_t handle) {
  Node& n = nodes_[handle];
  n.prev = kNil;
  n.next = lru_head_;
  if (lru_head_ != kNil) nodes_[lru_head_].prev = handle;
  lru_head_ = handle;
  if (lru_tail_ == kNil) lru_tail_ = handle;
}

void FlowStateTable::remove(std::size_t slot, std::uint32_t handle) {
  erase_slot(slot);
  lru_unlink(handle);
  tuples_.release(handle);
  --live_;
}

bool FlowStateTable::lookup(const net::FiveTuple& tuple, sim::TimePoint now) {
  const auto key = canonical(tuple);
  const std::size_t slot = find_slot(key);
  if (slot == slots_.size()) {
    ++stats_.misses;
    return false;
  }
  const std::uint32_t handle = slots_[slot] - 1;
  if (now - nodes_[handle].last_seen > config_.idle_timeout) {
    remove(slot, handle);
    ++stats_.expirations;
    ++stats_.misses;
    return false;
  }
  nodes_[handle].last_seen = now;
  lru_unlink(handle);
  lru_push_front(handle);
  ++stats_.hits;
  return true;
}

void FlowStateTable::insert(const net::FiveTuple& tuple, sim::TimePoint now) {
  if (slots_.empty()) slots_.assign(slot_mask_ + 1, 0);
  const auto key = canonical(tuple);
  const std::size_t slot = find_slot(key);
  if (slot != slots_.size()) {
    const std::uint32_t handle = slots_[slot] - 1;
    nodes_[handle].last_seen = now;
    lru_unlink(handle);
    lru_push_front(handle);
    return;
  }
  if (live_ >= config_.max_entries) {
    const std::uint32_t victim = lru_tail_;
    BARB_ASSERT(victim != kNil);
    const std::size_t victim_slot = find_slot(tuples_.get(victim));
    BARB_ASSERT(victim_slot != slots_.size());
    remove(victim_slot, victim);
    ++stats_.evictions;
  }
  const std::uint32_t handle = tuples_.intern(key);
  if (handle >= nodes_.size()) nodes_.resize(handle + 1);
  nodes_[handle].last_seen = now;
  std::size_t insert_at = home_slot(key);
  while (slots_[insert_at] != 0) insert_at = (insert_at + 1) & slot_mask_;
  slots_[insert_at] = handle + 1;
  lru_push_front(handle);
  ++live_;
  ++stats_.inserts;
}

void FlowStateTable::clear() {
  // Every removal zeroes its slot, so an empty table's array is already clear.
  if (live_ > 0) std::fill(slots_.begin(), slots_.end(), 0u);
  tuples_.clear();
  nodes_.clear();
  live_ = 0;
  lru_head_ = lru_tail_ = kNil;
}

}  // namespace barb::firewall
