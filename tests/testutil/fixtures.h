// Shared test topology builders.
#pragma once

#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

#include "link/link.h"
#include "link/switch.h"
#include "sim/simulation.h"
#include "stack/address_directory.h"
#include "stack/host.h"
#include "stack/nic.h"

namespace barb::testutil {

// Binds every host's IP to its MAC in `directory`, freezes it and hands it
// to each of them, as TopologyBuilder::build does for a fabric. The
// directory must outlive the hosts' traffic.
inline void share_directory(stack::AddressDirectory& directory,
                            std::initializer_list<stack::Host*> hosts) {
  for (stack::Host* h : hosts) directory.add(h->ip(), h->mac());
  directory.freeze();
  for (stack::Host* h : hosts) h->set_directory(&directory);
}

inline std::unique_ptr<stack::Host> make_host(sim::Simulation& sim,
                                              const std::string& name, std::uint32_t id,
                                              net::Ipv4Address ip,
                                              stack::HostConfig config = {}) {
  auto nic = std::make_unique<stack::StandardNic>(sim, net::MacAddress::from_host_id(id),
                                                  name + "/nic");
  return std::make_unique<stack::Host>(sim, name, ip, std::move(nic), config);
}

// Two hosts on a point-to-point link (a: 10.0.0.1, b: 10.0.0.2).
struct TwoHosts {
  explicit TwoHosts(sim::Simulation& sim, link::LinkConfig link_config = {})
      : link(sim, link_config) {
    a = make_host(sim, "a", 1, net::Ipv4Address(10, 0, 0, 1));
    b = make_host(sim, "b", 2, net::Ipv4Address(10, 0, 0, 2));
    a->nic().attach(link.a());
    b->nic().attach(link.b());
    share_directory(directory, {a.get(), b.get()});
  }

  link::Link link;
  stack::AddressDirectory directory;
  std::unique_ptr<stack::Host> a;
  std::unique_ptr<stack::Host> b;
};

// N hosts in a star around one switch, addressed 10.0.0.(i+1).
struct StarNetwork {
  StarNetwork(sim::Simulation& sim, int n, link::LinkConfig link_config = {})
      : sw(sim, "sw") {
    for (int i = 0; i < n; ++i) {
      links.push_back(std::make_unique<link::Link>(sim, link_config));
      auto host = make_host(sim, "h" + std::to_string(i),
                            static_cast<std::uint32_t>(i + 1),
                            net::Ipv4Address(10, 0, 0, static_cast<std::uint8_t>(i + 1)));
      host->nic().attach(links.back()->a());
      sw.attach(links.back()->b());
      directory.add(host->ip(), host->mac());
      hosts.push_back(std::move(host));
    }
    directory.freeze();
    for (auto& h : hosts) h->set_directory(&directory);
  }

  link::Switch sw;
  std::vector<std::unique_ptr<link::Link>> links;
  stack::AddressDirectory directory;
  std::vector<std::unique_ptr<stack::Host>> hosts;
};

}  // namespace barb::testutil
