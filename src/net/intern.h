// Interned network identifiers.
//
// Fleet-scale topologies hold the same addresses in many places: every host's
// ARP view names every other host, switches learn the same MACs, and flow
// tables key thousands of entries by five-tuple. Interning stores each
// distinct value once in a dense slab and hands out 32-bit handles, so the
// per-reference cost drops from the value size (plus hash-map node overhead)
// to four bytes, and equality becomes an integer compare.
//
// Two shapes are provided:
//
//  * `Interner<T>` — append-only: intern() returns a stable handle, values
//    are never released. Right for fleet membership data (IPs, MACs) whose
//    cardinality is bounded by the topology size.
//  * `SlabInterner<T>` — intern()/release() with a free list: handles are
//    recycled, so live memory is bounded by the number of *live* values.
//    Right for flow five-tuples, whose population churns under flood
//    (a spoofed flood must never grow an append-only table without bound).
//
// Both report `memory_bytes()` for the per-host `mem.*` footprint audit.
// Handles are indices into the slab: `get(handle)` is a vector index, no
// hashing. Neither container is thread-safe; each simulation owns its own.
#pragma once

#include <cstdint>
#include <limits>
#include <unordered_map>
#include <vector>

#include "net/five_tuple.h"
#include "net/ipv4_address.h"
#include "net/mac_address.h"
#include "util/assert.h"
#include "util/heap_bytes.h"

namespace barb::net {

using InternHandle = std::uint32_t;
inline constexpr InternHandle kInvalidIntern =
    std::numeric_limits<InternHandle>::max();

// Append-only interner: one dense copy per distinct value, stable handles.
template <typename T>
class Interner {
 public:
  // Returns the handle for `value`, inserting it on first sight.
  InternHandle intern(const T& value) {
    auto it = index_.find(value);
    if (it != index_.end()) return it->second;
    const InternHandle handle = static_cast<InternHandle>(values_.size());
    values_.push_back(value);
    index_.emplace(value, handle);
    return handle;
  }

  // Handle for `value` if already interned, else kInvalidIntern.
  InternHandle find(const T& value) const {
    auto it = index_.find(value);
    return it == index_.end() ? kInvalidIntern : it->second;
  }

  const T& get(InternHandle handle) const {
    BARB_ASSERT(handle < values_.size());
    return values_[handle];
  }

  std::size_t size() const { return values_.size(); }

  // Heap footprint: the dense slab plus the lookup index.
  std::size_t memory_bytes() const {
    return util::heap_bytes(values_) + util::heap_bytes(index_);
  }

 private:
  std::vector<T> values_;
  std::unordered_map<T, InternHandle> index_;
};

// Interner with release(): freed handles are recycled through a free list,
// bounding memory by the live population instead of the historical one.
template <typename T>
class SlabInterner {
 public:
  // Interns `value`; a released slot is reused when one is available.
  InternHandle intern(const T& value) {
    InternHandle handle;
    if (!free_.empty()) {
      handle = free_.back();
      free_.pop_back();
      values_[handle] = value;
    } else {
      handle = static_cast<InternHandle>(values_.size());
      values_.push_back(value);
    }
    ++live_;
    return handle;
  }

  // Releases a handle for reuse. The caller owns uniqueness: a slab interner
  // does not deduplicate (its users key their own index by content).
  void release(InternHandle handle) {
    BARB_ASSERT(handle < values_.size());
    BARB_ASSERT(live_ > 0);
    free_.push_back(handle);
    --live_;
  }

  const T& get(InternHandle handle) const {
    BARB_ASSERT(handle < values_.size());
    return values_[handle];
  }
  T& get(InternHandle handle) {
    BARB_ASSERT(handle < values_.size());
    return values_[handle];
  }

  std::size_t live() const { return live_; }
  std::size_t slots() const { return values_.size(); }

  std::size_t memory_bytes() const {
    return util::heap_bytes(values_) + util::heap_bytes(free_);
  }

  void clear() {
    values_.clear();
    free_.clear();
    live_ = 0;
  }

 private:
  std::vector<T> values_;
  std::vector<InternHandle> free_;
  std::size_t live_ = 0;
};

using Ipv4Interner = Interner<Ipv4Address>;
using MacInterner = Interner<MacAddress>;
using FiveTupleSlab = SlabInterner<FiveTuple>;

}  // namespace barb::net
