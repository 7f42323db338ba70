// Heap held by standard containers, for the components' memory_bytes()
// footprint audit (core::MemoryAudit).
//
// Vectors and strings report exactly what they allocated. Node-based
// containers and std::deque cannot be inspected portably, so their figures
// follow the libstdc++ layout: what a counting operator new would see, minus
// malloc's own headers. Objects a container points to (unique_ptr targets,
// shared_ptr'd connections) are the caller's to add; a single owned object
// reports itself through the unique_ptr overload.
#pragma once

#include <algorithm>
#include <cstddef>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace barb::util {

template <typename T, typename A>
std::size_t heap_bytes(const std::vector<T, A>& v) {
  return v.capacity() * sizeof(T);
}

// Zero while the string fits its inline (small-string) buffer.
inline std::size_t heap_bytes(const std::string& s) {
  const char* self = reinterpret_cast<const char*>(&s);
  const std::less<const char*> before;  // total order across objects
  const bool inline_buffer = !before(s.data(), self) && before(s.data(), self + sizeof(s));
  return inline_buffer ? 0 : s.capacity() + 1;
}

// libstdc++ keeps elements in 512-byte node buffers (one element per node
// when larger) behind a map of at least 8 node pointers; even an empty deque
// holds one node.
template <typename T, typename A>
std::size_t heap_bytes(const std::deque<T, A>& d) {
  constexpr std::size_t per_node = sizeof(T) < 512 ? 512 / sizeof(T) : 1;
  const std::size_t nodes = d.size() / per_node + 1;
  return nodes * per_node * sizeof(T) +
         std::max<std::size_t>(8, nodes + 2) * sizeof(void*);
}

// One node per entry (value, next pointer, cached hash or padding) plus the
// bucket array; a single-bucket table uses an inline bucket.
template <typename K, typename V, typename H, typename E, typename A>
std::size_t heap_bytes(const std::unordered_map<K, V, H, E, A>& m) {
  const std::size_t node = sizeof(std::pair<const K, V>) + 2 * sizeof(void*);
  const std::size_t buckets = m.bucket_count() > 1 ? m.bucket_count() * sizeof(void*) : 0;
  return m.size() * node + buckets;
}

// Red-black tree: one node per entry (value + colour + three links).
template <typename K, typename V, typename C, typename A>
std::size_t heap_bytes(const std::map<K, V, C, A>& m) {
  return m.size() * (sizeof(std::pair<const K, V>) + 4 * sizeof(void*));
}

// An owned object: the object itself plus the heap its memory_bytes()
// reports; zero when there is none.
template <typename T>
std::size_t heap_bytes(const std::unique_ptr<T>& p) {
  return p ? sizeof(T) + p->memory_bytes() : 0;
}

}  // namespace barb::util
