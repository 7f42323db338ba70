// Shared address directory: the only way a host resolves an IP to a MAC.
//
// A full mesh of per-host ARP maps is O(N) maps of O(N) entries: fine for
// four hosts, quadratic for a thousand. Every fabric TopologyBuilder builds —
// the 4-host testbed included — instead holds one immutable AddressDirectory
// (all host IP→MAC bindings, sorted by IP for binary search) and hands it to
// every host (Host::set_directory): memory is O(N) for the whole fabric,
// twelve bytes per host.
//
// The directory is frozen before traffic starts (freeze() sorts the entries);
// lookups on an unfrozen directory are a bug, not a race — the simulator is
// single-threaded per simulation.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "net/ipv4_address.h"
#include "net/mac_address.h"
#include "util/assert.h"

namespace barb::stack {

class AddressDirectory {
 public:
  void add(net::Ipv4Address ip, net::MacAddress mac) {
    BARB_ASSERT_MSG(!frozen_, "directory is immutable after freeze()");
    entries_.push_back(Entry{ip.value(), mac});
  }

  // Sorts the index; the directory is immutable (and lookup-ready) after.
  void freeze() {
    std::sort(entries_.begin(), entries_.end(),
              [](const Entry& a, const Entry& b) { return a.ip < b.ip; });
    frozen_ = true;
  }

  std::optional<net::MacAddress> lookup(net::Ipv4Address ip) const {
    BARB_ASSERT_MSG(frozen_, "freeze() the directory before lookups");
    const std::uint32_t key = ip.value();
    auto it = std::lower_bound(
        entries_.begin(), entries_.end(), key,
        [](const Entry& e, std::uint32_t k) { return e.ip < k; });
    if (it == entries_.end() || it->ip != key) return std::nullopt;
    return it->mac;
  }

  std::size_t size() const { return entries_.size(); }
  bool frozen() const { return frozen_; }

  // Total heap footprint of the shared directory.
  std::size_t memory_bytes() const { return entries_.capacity() * sizeof(Entry); }

 private:
  struct Entry {
    std::uint32_t ip;
    net::MacAddress mac;
  };

  std::vector<Entry> entries_;
  bool frozen_ = false;
};

}  // namespace barb::stack
