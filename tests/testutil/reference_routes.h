// Reference fabric routes: the shortest-path rule TopologyBuilder::build()
// used to preload into every switch's FIB before leaf-spine switches
// computed their routes. It is the oracle for those routes
// (TopologyBuilder.LeafSpineRoutesMatchShortestPathReference).
//
// Works on any built fabric from its port maps alone: BFS distances between
// switches over the trunks; a host's own switch sends to its access port,
// and any other switch picks, among its trunk ports whose far switch is one
// hop closer to the host's switch, the (host index mod candidates)-th.
#pragma once

#include <cstddef>
#include <deque>
#include <vector>

#include "core/topology.h"

namespace barb::testutil::reference {

// routes[switch][host]: egress port, or -1 when the host is unreachable.
inline std::vector<std::vector<int>> shortest_path_routes(const core::Fabric& f) {
  const auto& peers = f.port_peer_switch();
  const auto& port_host = f.port_host();
  const std::size_t switches = peers.size();
  const auto hosts = static_cast<std::size_t>(f.num_hosts());

  // dist[a][b]: trunk hops from switch a to switch b, -1 if unreachable.
  std::vector<std::vector<int>> dist(switches, std::vector<int>(switches, -1));
  for (std::size_t s = 0; s < switches; ++s) {
    dist[s][s] = 0;
    std::deque<std::size_t> frontier{s};
    while (!frontier.empty()) {
      const std::size_t cur = frontier.front();
      frontier.pop_front();
      for (const int peer : peers[cur]) {
        if (peer < 0 || dist[s][static_cast<std::size_t>(peer)] >= 0) continue;
        dist[s][static_cast<std::size_t>(peer)] = dist[s][cur] + 1;
        frontier.push_back(static_cast<std::size_t>(peer));
      }
    }
  }

  std::vector<std::vector<int>> routes(switches, std::vector<int>(hosts, -1));
  for (std::size_t h = 0; h < hosts; ++h) {
    const auto target = static_cast<std::size_t>(f.host_switch(static_cast<int>(h)));
    for (std::size_t s = 0; s < switches; ++s) {
      if (s == target) {
        for (std::size_t p = 0; p < port_host[s].size(); ++p) {
          if (port_host[s][p] == static_cast<int>(h)) routes[s][h] = static_cast<int>(p);
        }
        continue;
      }
      const int want = dist[s][target];
      if (want < 0) continue;
      std::vector<int> candidates;
      for (std::size_t p = 0; p < peers[s].size(); ++p) {
        const int peer = peers[s][p];
        if (peer >= 0 && dist[static_cast<std::size_t>(peer)][target] == want - 1) {
          candidates.push_back(static_cast<int>(p));
        }
      }
      routes[s][h] = candidates[h % candidates.size()];
    }
  }
  return routes;
}

}  // namespace barb::testutil::reference
