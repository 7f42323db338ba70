#include "core/topology.h"

#include <utility>

#include "util/assert.h"
#include "util/heap_bytes.h"

namespace barb::core {

namespace {

// Appended to a card's profile name in its NIC label ("EFW+stateful").
const char* backend_label_suffix(firewall::MatchBackend backend) {
  switch (backend) {
    case firewall::MatchBackend::kLinear: return "";
    case firewall::MatchBackend::kLinearStateful: return "+stateful";
    case firewall::MatchBackend::kCompiled: return "+compiled";
    case firewall::MatchBackend::kCompiledFlowCache: return "+flowcache";
  }
  return "";
}

}  // namespace

const char* to_string(FirewallKind kind) {
  switch (kind) {
    case FirewallKind::kNone: return "No Firewall";
    case FirewallKind::kIptables: return "iptables";
    case FirewallKind::kEfw: return "EFW";
    case FirewallKind::kAdf: return "ADF";
    case FirewallKind::kAdfVpg: return "ADF (VPG)";
  }
  return "?";
}

std::unique_ptr<stack::Nic> make_nic(sim::Simulation& sim, const HostSpec& spec,
                                     firewall::FirewallNic** out_firewall) {
  if (out_firewall != nullptr) *out_firewall = nullptr;
  switch (spec.nic.kind) {
    case FirewallKind::kEfw:
    case FirewallKind::kAdf:
    case FirewallKind::kAdfVpg: {
      auto profile = spec.nic.profile_override ? *spec.nic.profile_override
                     : spec.nic.kind == FirewallKind::kEfw ? firewall::efw_profile()
                                                           : firewall::adf_profile();
      const std::string label =
          spec.nic_label.empty()
              ? spec.name + "/" + profile.name + backend_label_suffix(spec.nic.backend)
              : spec.nic_label;
      auto nic = std::make_unique<firewall::FirewallNic>(
          sim, spec.mac, label, std::move(profile), spec.nic.backend);
      if (spec.nic.flood_guard) nic->enable_flood_guard(*spec.nic.flood_guard);
      if (out_firewall != nullptr) *out_firewall = nic.get();
      return nic;
    }
    case FirewallKind::kNone:
    case FirewallKind::kIptables:
      break;
  }
  const std::string label =
      spec.nic_label.empty() ? spec.name + "/nic" : spec.nic_label;
  return std::make_unique<stack::StandardNic>(sim, spec.mac, label);
}

// --- Fabric ---------------------------------------------------------------

bool Fabric::all_hosts_routed() const {
  for (int s = 0; s < num_switches(); ++s) {
    for (std::size_t h = 0; h < hosts_.size(); ++h) {
      const net::MacAddress mac = hosts_[h]->mac();
      int cur = s;
      bool reached = false;
      // A route must reach the host in at most one hop per switch.
      for (int step = 0; step <= num_switches(); ++step) {
        const int port = switches_[static_cast<std::size_t>(cur)]->lookup(mac);
        if (port < 0) break;
        const auto& peers = port_peer_switch_[static_cast<std::size_t>(cur)];
        const auto& hostmap = port_host_[static_cast<std::size_t>(cur)];
        if (hostmap[static_cast<std::size_t>(port)] == static_cast<int>(h)) {
          reached = true;
          break;
        }
        const int next = peers[static_cast<std::size_t>(port)];
        if (next < 0) break;  // routed into a non-trunk port
        cur = next;
      }
      if (!reached) return false;
    }
  }
  return true;
}

MemoryAudit Fabric::memory_audit() const {
  MemoryAudit audit;
  audit.hosts = hosts_.size();
  if (directory_) {
    audit.directory_bytes = sizeof(stack::AddressDirectory) + directory_->memory_bytes();
  }
  for (std::size_t i = 0; i < hosts_.size(); ++i) {
    stack::Host& host = *hosts_[i];
    audit.host_stack_bytes += host.stack_memory_bytes();
    audit.host_object_bytes += sizeof(stack::Host);
    if (firewalls_[i] != nullptr) {
      audit.firewall_bytes += firewalls_[i]->memory_bytes();
      audit.host_object_bytes += sizeof(firewall::FirewallNic);
    } else {
      audit.host_object_bytes +=
          sizeof(stack::StandardNic) + util::heap_bytes(host.nic().name());
    }
  }
  for (const auto& link : links_) {
    audit.link_bytes += sizeof(link::Link) + link->memory_bytes();
  }
  for (const auto& sw : switches_) {
    audit.switch_fib_bytes += sw->fib_memory_bytes();
    audit.switch_port_bytes += sizeof(link::Switch) + sw->port_memory_bytes();
  }
  audit.fabric_bytes = sizeof(Fabric) + util::heap_bytes(switches_) +
                       util::heap_bytes(links_) + util::heap_bytes(hosts_) +
                       util::heap_bytes(firewalls_) + util::heap_bytes(host_switch_) +
                       util::heap_bytes(port_peer_switch_) + util::heap_bytes(port_host_);
  for (std::size_t s = 0; s < switches_.size(); ++s) {
    audit.fabric_bytes +=
        util::heap_bytes(port_peer_switch_[s]) + util::heap_bytes(port_host_[s]);
  }
  return audit;
}

void Fabric::register_fleet_metrics(telemetry::MetricRegistry& registry) {
  registry.gauge("mem.per_host_bytes", "",
                 [this] { return static_cast<double>(memory_audit().per_host_bytes()); });
  registry.gauge("mem.total_bytes", "",
                 [this] { return static_cast<double>(memory_audit().total_bytes()); });
  static constexpr std::pair<const char*, std::size_t MemoryAudit::*> kFields[] = {
      {"mem.directory_bytes", &MemoryAudit::directory_bytes},
      {"mem.host_stack_bytes", &MemoryAudit::host_stack_bytes},
      {"mem.firewall_bytes", &MemoryAudit::firewall_bytes},
      {"mem.link_bytes", &MemoryAudit::link_bytes},
      {"mem.switch_fib_bytes", &MemoryAudit::switch_fib_bytes},
      {"mem.switch_port_bytes", &MemoryAudit::switch_port_bytes},
      {"mem.host_object_bytes", &MemoryAudit::host_object_bytes},
      {"mem.fabric_bytes", &MemoryAudit::fabric_bytes},
  };
  for (const auto& [name, field] : kFields) {
    registry.gauge(name, "", [this, field = field] {
      return static_cast<double>(memory_audit().*field);
    });
  }
  registry.gauge("fleet.hosts", "",
                 [this] { return static_cast<double>(num_hosts()); });
  registry.counter_fn("fleet.ip_rx", "", [this] {
    double total = 0;
    for (const auto& h : hosts_) total += static_cast<double>(h->stats().ip_rx);
    return total;
  });
  registry.counter_fn("fleet.ip_tx", "", [this] {
    double total = 0;
    for (const auto& h : hosts_) total += static_cast<double>(h->stats().ip_tx);
    return total;
  });
  for (const auto& sw : switches_) {
    sw->register_fib_metrics(registry, "switch=" + sw->name());
  }
}

// --- TopologyBuilder ------------------------------------------------------

TopologyBuilder::TopologyBuilder(sim::Simulation& sim)
    : fabric_(std::make_unique<Fabric>(sim)) {}

int TopologyBuilder::add_switch(const std::string& name, link::Switch::Route route) {
  BARB_ASSERT(!built_);
  const int index = fabric_->num_switches();
  fabric_->switches_.push_back(std::make_unique<link::Switch>(
      fabric_->sim_, name, link::SwitchConfig{}, std::move(route)));
  fabric_->port_peer_switch_.emplace_back();
  fabric_->port_host_.emplace_back();
  return index;
}

int TopologyBuilder::add_host(const HostSpec& spec, int switch_id,
                              const link::LinkConfig& link_config) {
  BARB_ASSERT(!built_);
  BARB_ASSERT(switch_id >= 0 && switch_id < fabric_->num_switches());
  const int index = fabric_->num_hosts();

  firewall::FirewallNic* fw = nullptr;
  auto nic = make_nic(fabric_->sim_, spec, &fw);
  auto host = std::make_unique<stack::Host>(fabric_->sim_, spec.name, spec.ip,
                                            std::move(nic), spec.host_config);

  fabric_->links_.push_back(
      std::make_unique<link::Link>(fabric_->sim_, link_config));
  link::Link& link = *fabric_->links_.back();
  host->nic().attach(link.a());
  fabric_->switches_[static_cast<std::size_t>(switch_id)]->attach(link.b());
  fabric_->port_peer_switch_[static_cast<std::size_t>(switch_id)].push_back(-1);
  fabric_->port_host_[static_cast<std::size_t>(switch_id)].push_back(index);

  fabric_->hosts_.push_back(std::move(host));
  fabric_->firewalls_.push_back(fw);
  fabric_->host_switch_.push_back(switch_id);
  return index;
}

void TopologyBuilder::connect_switches(int a, int b,
                                       const link::LinkConfig& link_config) {
  BARB_ASSERT(!built_);
  BARB_ASSERT(a != b);
  BARB_ASSERT(a >= 0 && a < fabric_->num_switches());
  BARB_ASSERT(b >= 0 && b < fabric_->num_switches());
  fabric_->links_.push_back(
      std::make_unique<link::Link>(fabric_->sim_, link_config));
  link::Link& link = *fabric_->links_.back();
  fabric_->switches_[static_cast<std::size_t>(a)]->attach(link.a());
  fabric_->switches_[static_cast<std::size_t>(b)]->attach(link.b());
  fabric_->port_peer_switch_[static_cast<std::size_t>(a)].push_back(b);
  fabric_->port_host_[static_cast<std::size_t>(a)].push_back(-1);
  fabric_->port_peer_switch_[static_cast<std::size_t>(b)].push_back(a);
  fabric_->port_host_[static_cast<std::size_t>(b)].push_back(-1);
}

std::unique_ptr<Fabric> TopologyBuilder::build() {
  BARB_ASSERT(!built_);
  built_ = true;
  Fabric& f = *fabric_;

  // Address resolution.
  f.directory_ = std::make_shared<stack::AddressDirectory>();
  for (const auto& h : f.hosts_) f.directory_->add(h->ip(), h->mac());
  f.directory_->freeze();
  for (const auto& h : f.hosts_) h->set_directory(f.directory_.get());

  return std::move(fabric_);
}

// --- presets --------------------------------------------------------------

net::Ipv4Address fleet_ip(int host_index) {
  const std::uint32_t n = static_cast<std::uint32_t>(host_index) + 1;
  BARB_ASSERT(n < (1u << 24));
  return net::Ipv4Address(10, static_cast<std::uint8_t>((n >> 16) & 0xff),
                          static_cast<std::uint8_t>((n >> 8) & 0xff),
                          static_cast<std::uint8_t>(n & 0xff));
}

// Host h's MAC is 02:00 followed by h + 1 in 32 bits (from_host_id), so the
// fabric switches' routes read the host index straight out of it.
net::MacAddress fleet_mac(int host_index) {
  return net::MacAddress::from_host_id(static_cast<std::uint32_t>(host_index) + 1);
}

int fleet_host_index(const net::MacAddress& mac, int hosts) {
  const auto& b = mac.bytes();
  if (b[0] != 0x02 || b[1] != 0x00) return -1;
  const std::uint32_t id = static_cast<std::uint32_t>(b[2]) << 24 |
                           static_cast<std::uint32_t>(b[3]) << 16 |
                           static_cast<std::uint32_t>(b[4]) << 8 | b[5];
  if (id < 1 || id > static_cast<std::uint32_t>(hosts)) return -1;
  return static_cast<int>(id - 1);
}

namespace {

HostSpec fleet_host_spec(int index, NicSpec nic) {
  HostSpec spec;
  spec.name = "h" + std::to_string(index);
  spec.ip = fleet_ip(index);
  spec.mac = fleet_mac(index);
  spec.nic = std::move(nic);
  return spec;
}

}  // namespace

std::unique_ptr<Fabric> build_leaf_spine(sim::Simulation& sim,
                                         const LeafSpineSpec& spec) {
  BARB_ASSERT(spec.hosts >= 1 && spec.hosts_per_leaf >= 1 && spec.spines >= 1);
  const int hosts = spec.hosts;
  const int per_leaf = spec.hosts_per_leaf;
  const int spines = spec.spines;
  const int leaves = (hosts + per_leaf - 1) / per_leaf;

  // Port order, fixed by the declarations below: spine port l is the trunk
  // to leaf l; leaf port s is the trunk to spine s, and leaf port
  // spines + i its i-th host. Host h sits on leaf h / per_leaf. A leaf sends
  // any other leaf's host up spine h % spines, so flows to different hosts
  // spread over the spines (the deterministic stand-in for ECMP hashing).
  TopologyBuilder builder(sim);
  for (int s = 0; s < spines; ++s) {
    builder.add_switch("spine" + std::to_string(s),
                       [hosts, per_leaf](const net::MacAddress& dst) {
                         const int h = fleet_host_index(dst, hosts);
                         return h < 0 ? -1 : h / per_leaf;
                       });
  }
  int host_index = 0;
  for (int l = 0; l < leaves; ++l) {
    const int leaf = builder.add_switch(
        "leaf" + std::to_string(l),
        [hosts, per_leaf, spines, l](const net::MacAddress& dst) {
          const int h = fleet_host_index(dst, hosts);
          if (h < 0) return -1;
          return h / per_leaf == l ? spines + h % per_leaf : h % spines;
        });
    for (int s = 0; s < spines; ++s) {
      builder.connect_switches(leaf, s, spec.trunk_link);
    }
    for (int i = 0; i < per_leaf && host_index < hosts; ++i) {
      const NicSpec nic =
          spec.nic_for ? spec.nic_for(host_index) : spec.default_nic;
      builder.add_host(fleet_host_spec(host_index, nic), leaf, spec.access_link);
      ++host_index;
    }
  }
  return builder.build();
}

}  // namespace barb::core
