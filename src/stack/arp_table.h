// Static ARP table.
//
// Every mapping is installed up front (the paper's results do not depend on
// ARP dynamics, and a resolution protocol would only add noise to the
// measurements). Fabrics do not replicate a full mesh into every host: the
// TopologyBuilder installs one shared AddressDirectory (see
// stack/address_directory.h) and each host's table consults it when the
// private map misses. Private entries added with add() win over the
// directory, so tests and overrides keep working unchanged.
#pragma once

#include <optional>
#include <unordered_map>

#include "net/ipv4_address.h"
#include "net/mac_address.h"
#include "stack/address_directory.h"
#include "util/heap_bytes.h"

namespace barb::stack {

class ArpTable {
 public:
  void add(net::Ipv4Address ip, net::MacAddress mac) { table_[ip] = mac; }

  // Shared fallback consulted after the private map (not owned; must outlive
  // this table and be frozen before lookups).
  void set_directory(const AddressDirectory* directory) { directory_ = directory; }
  const AddressDirectory* directory() const { return directory_; }

  std::optional<net::MacAddress> lookup(net::Ipv4Address ip) const {
    auto it = table_.find(ip);
    if (it != table_.end()) return it->second;
    if (directory_ != nullptr) return directory_->lookup(ip);
    return std::nullopt;
  }

  // Private entries only (the shared directory is counted once per fleet).
  std::size_t size() const { return table_.size(); }

  // Heap footprint of the private map. The shared directory's footprint is
  // reported by the topology that owns it, not double-counted per host.
  std::size_t memory_bytes() const { return util::heap_bytes(table_); }

 private:
  std::unordered_map<net::Ipv4Address, net::MacAddress> table_;
  const AddressDirectory* directory_ = nullptr;
};

}  // namespace barb::stack
