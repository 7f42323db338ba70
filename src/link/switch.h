// Store-and-forward Ethernet switch: the testbed's learning switch (3COM
// 3C16734A) and the fabric switches of a leaf-spine.
//
// Frames arrive fully serialized (the Link model delivers whole frames), are
// looked up after a small forwarding latency, and are queued on the egress
// LinkPort. The paper verified the switch itself was not the bottleneck; our
// model preserves that property (forwarding capacity is per-port line rate).
//
// A switch built without a route learns: it looks destinations up in its MAC
// forwarding table and floods unknown destinations and broadcasts to all
// other ports. The table is a bounded open-addressing FIB, not a growable
// map: a spoofed-source flood used to grow the table without limit, which a
// fleet-scale flood scenario turns into unbounded memory. Entries hash into a
// fixed power-of-two slot array; a full probe window evicts the stalest entry
// (counted in `fib_evictions`).
//
// A switch built with a route forwards where the route says and nowhere
// else: it never learns, never floods (multi-spine fabrics are loopy at L2,
// so flooding there would melt the simulation exactly the way it melts a
// real network without spanning tree) and holds no FIB. A multicast frame,
// or a destination the route refuses, is a `no_route_drops`.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "link/link.h"
#include "net/mac_address.h"
#include "sim/simulation.h"

namespace barb::link {

struct SwitchConfig {
  sim::Duration forwarding_delay = sim::Duration::microseconds(4);
  sim::Duration mac_table_aging = sim::Duration::seconds(300);
  // FIB slot count of a learning switch; rounded up to a power of two.
  // Bounds memory no matter how many source addresses a flood spoofs.
  std::size_t fib_capacity = 4096;
};

struct SwitchStats {
  std::uint64_t forwarded = 0;
  std::uint64_t flooded = 0;    // unknown unicast / broadcast
  std::uint64_t filtered = 0;   // destination learned on the ingress port
  std::uint64_t fib_evictions = 0;  // probe window full, stalest entry replaced
  std::uint64_t no_route_drops = 0;  // routed switch: multicast or unrouted
};

class Switch {
 public:
  // Egress port for a destination MAC, or -1 when there is none.
  using Route = std::function<int(const net::MacAddress&)>;

  // Without a route the switch learns and floods; with one it only routes.
  Switch(sim::Simulation& sim, std::string name, SwitchConfig config = {},
         Route route = {});
  ~Switch();

  Switch(const Switch&) = delete;
  Switch& operator=(const Switch&) = delete;

  // Attaches one side of a link to the next free switch port; the switch
  // becomes the sink of that port. Returns the port index.
  int attach(LinkPort& port);

  int num_ports() const { return static_cast<int>(ports_.size()); }
  const SwitchStats& stats() const { return stats_; }
  const std::string& name() const { return name_; }

  // Registers forwarding counters plus a per-port egress queue-depth gauge
  // ("switch.egress_queue_depth"{...,port=N}) for every currently attached
  // port. Call after the topology is built. Deliberately does NOT include
  // the FIB counters (see register_fib_metrics): the paper figures sample
  // this metric set into timelines, and their artifacts are a byte-identity
  // regression gate.
  void register_metrics(telemetry::MetricRegistry& registry,
                        const std::string& labels) const;

  // FIB occupancy/eviction/no-route counters plus the table's memory
  // footprint ("switch.fib_*"). Opt-in for fleet benches.
  void register_fib_metrics(telemetry::MetricRegistry& registry,
                            const std::string& labels) const;

  // The port a frame to `mac` leaves by: the route's answer on a routed
  // switch, the learned port otherwise; -1 when there is none.
  int lookup(const net::MacAddress& mac) const;

  // Live (non-empty) FIB entries; 0 on a routed switch.
  std::size_t fib_size() const { return fib_live_; }
  // Heap footprint of the FIB slot array; 0 on a routed switch.
  std::size_t fib_memory_bytes() const { return fib_.capacity() * sizeof(FibEntry); }
  // Heap held outside the FIB: the port table, one sink per port, the name.
  std::size_t port_memory_bytes() const;

 private:
  struct PortSink;

  // Linear-probe window: how many slots past the home slot are examined
  // before the stalest one is evicted. Small and fixed so lookup cost is
  // bounded even when a flood saturates the table.
  static constexpr std::size_t kProbeWindow = 8;

  struct FibEntry {
    std::uint64_t key = 0;  // MacAddress::to_u64() + 1; 0 = empty slot
    std::int32_t port = -1;
    sim::TimePoint learned;
  };

  void handle_frame(int ingress, net::Packet pkt);
  void forward(int egress, net::Packet pkt);
  void learn(const net::MacAddress& mac, int port);
  std::size_t home_slot(std::uint64_t key) const;

  sim::Simulation& sim_;
  std::string name_;
  SwitchConfig config_;
  Route route_;
  std::vector<LinkPort*> ports_;
  std::vector<std::unique_ptr<PortSink>> sinks_;
  std::vector<FibEntry> fib_;  // empty on a routed switch
  std::size_t fib_mask_ = 0;
  std::size_t fib_live_ = 0;
  SwitchStats stats_;
};

}  // namespace barb::link
