// Declarative topology construction for single-switch and fleet fabrics.
//
// The paper's Figure 1 testbed is four hosts on one switch; ROADMAP item 2
// is the same per-host enforcement argument at fleet scale. TopologyBuilder
// generalizes the wiring into data: callers declare switches (each a
// learning switch, or routed by a function it is built with), hosts (each
// with its own NIC firewall profile), access links and trunks, and build()
// returns a Fabric owning everything, with address resolution installed.
// The classic Testbed is a thin preset over this builder, and its artifacts
// are byte-identical to the hard-coded wiring it replaced.
//
// Fabric shapes:
//  * single switch — the paper's testbed, any host count (star), on one
//    learning switch.
//  * leaf-spine — hosts under leaf switches, every leaf trunked to every
//    spine. Redundant paths make L2 flooding a loop storm, so every leaf
//    and spine is routed instead: fabric MACs encode the host index
//    (fleet_mac), and each switch computes its egress port from it — a
//    spine sends to the host's leaf, a leaf to its own host's access port,
//    or up the spine picked by destination index for any other host. No
//    switch learns, floods or holds a FIB. With one spine it is the campus
//    tree shape (edge switches under one core), routed the same way.
//
// Address resolution has one path: build() freezes one AddressDirectory
// holding every host's binding (O(total hosts) memory) and hands it to every
// host, for the Testbed preset as for every fleet.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "firewall/nic_firewall.h"
#include "link/link.h"
#include "link/switch.h"
#include "sim/simulation.h"
#include "stack/address_directory.h"
#include "stack/host.h"
#include "telemetry/registry.h"

namespace barb::core {

enum class FirewallKind {
  kNone,      // standard NIC (Intel EEPro 100 baseline)
  kIptables,  // host-resident software firewall
  kEfw,       // 3Com Embedded Firewall model
  kAdf,       // Adventium ADF model, plain rule-set
  kAdfVpg,    // ADF with VPG tunnel between client and target
};

const char* to_string(FirewallKind kind);

// Per-host NIC hardware profile: which firewall model guards the host, with
// which matching backend and cost-model overrides.
struct NicSpec {
  FirewallKind kind = FirewallKind::kNone;
  firewall::MatchBackend backend = firewall::MatchBackend::kLinear;
  std::optional<firewall::DeviceProfile> profile_override;
  std::optional<firewall::FloodGuardConfig> flood_guard;
};

struct HostSpec {
  std::string name;
  net::Ipv4Address ip;
  net::MacAddress mac;
  NicSpec nic;
  stack::HostConfig host_config;
  // Metric/trace label of the NIC. Empty derives "<name>/nic" for standard
  // NICs and "<name>/<profile name>" for firewall NICs, with the backend
  // appended when it is not linear ("target/EFW+stateful").
  std::string nic_label;
};

// Aggregate heap-footprint audit over a built fabric (the `mem.*` numbers).
// Every object TopologyBuilder allocates, and every component's memory_bytes(),
// lands in exactly one field, so total_bytes() tracks what building and
// running the fabric holds on the heap (checked against a counting
// operator new by tests/core/memory_audit_test.cc). Frame buffers (the
// buffer pool's) and scheduler events (the Simulation's) are not the
// fabric's and are not counted.
struct MemoryAudit {
  std::size_t hosts = 0;
  std::size_t directory_bytes = 0;    // shared AddressDirectory (once)
  std::size_t host_stack_bytes = 0;   // UDP/TCP layers: sockets, connections
  std::size_t firewall_bytes = 0;     // NIC firewall cards: rules, the
                                      // backend's tables, ring queue, guard
  std::size_t link_bytes = 0;         // Link objects and their port FIFOs
  std::size_t switch_fib_bytes = 0;   // learning switches' bounded FIBs
  std::size_t switch_port_bytes = 0;  // Switch objects, port tables and sinks
  std::size_t host_object_bytes = 0;  // the Host/Nic objects themselves
  std::size_t fabric_bytes = 0;       // the Fabric and its index tables

  std::size_t total_bytes() const {
    return directory_bytes + host_stack_bytes + firewall_bytes + link_bytes +
           switch_fib_bytes + switch_port_bytes + host_object_bytes + fabric_bytes;
  }
  std::size_t per_host_bytes() const {
    return hosts == 0 ? 0 : total_bytes() / hosts;
  }
};

// A built topology: owns switches, links, and hosts. Hosts and their access
// links share an index; trunks follow the access links in `links()`.
class Fabric {
 public:
  explicit Fabric(sim::Simulation& sim) : sim_(sim) {}

  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  sim::Simulation& simulation() { return sim_; }

  int num_hosts() const { return static_cast<int>(hosts_.size()); }
  int num_switches() const { return static_cast<int>(switches_.size()); }

  stack::Host& host(int i) { return *hosts_[static_cast<std::size_t>(i)]; }
  // Device firewall on host i's NIC; null for plain NICs.
  firewall::FirewallNic* firewall(int i) {
    return firewalls_[static_cast<std::size_t>(i)];
  }
  link::Switch& fabric_switch(int i) {
    return *switches_[static_cast<std::size_t>(i)];
  }
  // Switch the host's access link lands on.
  int host_switch(int i) const { return host_switch_[static_cast<std::size_t>(i)]; }
  // Access link of host i (a() = host side, b() = switch side).
  link::Link& host_link(int i) { return *links_[static_cast<std::size_t>(i)]; }
  const std::vector<std::unique_ptr<link::Link>>& links() const { return links_; }

  const stack::AddressDirectory* directory() const { return directory_.get(); }

  // Follows every switch's forwarding decision (lookup()) hop by hop: true
  // iff every switch reaches every host's MAC (diagnostic for fabric
  // invariant tests and the fuzzer).
  bool all_hosts_routed() const;

  // Per switch, per port: the switch a trunk port leads to, or -1.
  const std::vector<std::vector<int>>& port_peer_switch() const {
    return port_peer_switch_;
  }
  // Per switch, per port: the host an access port leads to, or -1.
  const std::vector<std::vector<int>>& port_host() const { return port_host_; }

  MemoryAudit memory_audit() const;

  // Registers the per-fleet footprint audit ("mem.*") and aggregate traffic
  // counters ("fleet.*"), plus each switch's FIB counters. Opt-in for fleet
  // benches — deliberately separate from the per-component register_metrics
  // calls the paper figures sample (their artifacts are a byte-identity
  // regression gate, so their metric set must not grow).
  void register_fleet_metrics(telemetry::MetricRegistry& registry);

 private:
  friend class TopologyBuilder;

  sim::Simulation& sim_;
  std::vector<std::unique_ptr<link::Switch>> switches_;
  std::vector<std::unique_ptr<link::Link>> links_;  // access links, then trunks
  std::vector<std::unique_ptr<stack::Host>> hosts_;
  std::vector<firewall::FirewallNic*> firewalls_;  // per host; null when plain
  std::vector<int> host_switch_;                   // per host: switch index
  std::shared_ptr<stack::AddressDirectory> directory_;
  // Per switch: port index -> peer switch index (trunks) or -1; and port
  // index -> host index (access ports) or -1. Filled as links attach; used
  // by the reachability diagnostic.
  std::vector<std::vector<int>> port_peer_switch_;
  std::vector<std::vector<int>> port_host_;
};

class TopologyBuilder {
 public:
  explicit TopologyBuilder(sim::Simulation& sim);

  // Declares a switch; returns its index. Without a route it is a learning
  // switch; with one it forwards only where the route says (link/switch.h).
  int add_switch(const std::string& name, link::Switch::Route route = {});

  // Declares a host attached to `switch_id` over `link_config`; returns the
  // host index. The link is created immediately, so switch port numbering
  // follows call order (trunks and hosts interleave as declared).
  int add_host(const HostSpec& spec, int switch_id,
               const link::LinkConfig& link_config);

  // Declares a trunk between two switches.
  void connect_switches(int a, int b, const link::LinkConfig& link_config);

  // Freezes the shared address directory, hands it to every host and
  // returns the fabric.
  std::unique_ptr<Fabric> build();

 private:
  std::unique_ptr<Fabric> fabric_;
  bool built_ = false;
};

// Creates the NIC described by `spec` (used by the builder presets and the
// Testbed). `out_firewall` receives the FirewallNic when one is built.
std::unique_ptr<stack::Nic> make_nic(sim::Simulation& sim, const HostSpec& spec,
                                     firewall::FirewallNic** out_firewall);

// --- fabric presets -------------------------------------------------------

struct LeafSpineSpec {
  int hosts = 64;
  int hosts_per_leaf = 16;
  int spines = 2;
  // Access links model the testbed's deep-buffered 100 Mbps edge; trunks are
  // 1 Gbps with proportionally deeper queues.
  link::LinkConfig access_link{100e6, sim::Duration::nanoseconds(500),
                               768 * 1024};
  link::LinkConfig trunk_link{1e9, sim::Duration::microseconds(1),
                              4 * 768 * 1024};
  // Per-host NIC profile applied to every host (benches override per index
  // via `nic_for`, e.g. plain NICs for designated attackers).
  NicSpec default_nic;
  std::function<NicSpec(int host_index)> nic_for;  // optional override
  // Ignored: every link runs the one delivery engine (link/link.h). Kept
  // only because perfbench/driver.cc still assigns it.
  bool batched_links = true;
};

std::unique_ptr<Fabric> build_leaf_spine(sim::Simulation& sim,
                                         const LeafSpineSpec& spec);

// IP/MAC assignment shared by the presets (host index -> 10.x.y.z / MAC).
net::Ipv4Address fleet_ip(int host_index);
net::MacAddress fleet_mac(int host_index);
// The inverse of fleet_mac on a fabric of `hosts` hosts: the host index, or
// -1 for any MAC that is not one of the fabric's hosts.
int fleet_host_index(const net::MacAddress& mac, int hosts);

}  // namespace barb::core
