// Reference LRU table: the std::list + std::unordered_map bookkeeping
// FloodGuard kept its sources in before util::LruTable replaced it. It is
// the oracle for util::LruTable (util_lru_table_test) and, under the
// flow-state logic, for firewall::FlowStateTable (firewall_flow_state_test).
// Same interface as util::LruTable, except that insert() returns only the
// evicted key.
#pragma once

#include <cstddef>
#include <functional>
#include <list>
#include <optional>
#include <unordered_map>

namespace barb::testutil::reference {

template <typename K, typename V, typename Hash = std::hash<K>>
class LruTable {
 public:
  explicit LruTable(std::size_t max_entries) : max_entries_(max_entries) {}

  V* find(const K& key) {
    auto it = map_.find(key);
    if (it == map_.end()) return nullptr;
    lru_.splice(lru_.begin(), lru_, it->second.position);
    return &it->second.value;
  }

  bool contains(const K& key) const { return map_.contains(key); }

  std::optional<K> insert(const K& key, const V& value) {
    std::optional<K> evicted;
    if (map_.size() >= max_entries_) {
      evicted = lru_.back();
      map_.erase(lru_.back());
      lru_.pop_back();
    }
    lru_.push_front(key);
    map_.emplace(key, Entry{value, lru_.begin()});
    return evicted;
  }

  bool erase(const K& key) {
    auto it = map_.find(key);
    if (it == map_.end()) return false;
    lru_.erase(it->second.position);
    map_.erase(it);
    return true;
  }

  void clear() {
    map_.clear();
    lru_.clear();
  }

  std::size_t size() const { return map_.size(); }

 private:
  struct Entry {
    V value;
    typename std::list<K>::iterator position;
  };

  std::size_t max_entries_;
  std::unordered_map<K, Entry, Hash> map_;
  std::list<K> lru_;  // front = most recent
};

}  // namespace barb::testutil::reference
