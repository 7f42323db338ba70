#include "link/switch.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "net/frame_view.h"
#include "util/assert.h"
#include "util/heap_bytes.h"

namespace barb::link {

struct Switch::PortSink : FrameSink {
  Switch* parent;
  int index;

  PortSink(Switch* sw, int idx) : parent(sw), index(idx) {}

  void deliver(net::Packet pkt) override { parent->handle_frame(index, std::move(pkt)); }
};

namespace {

// Slots never transition filled -> empty (evictions replace in place), so a
// key always lives within the probe window of its home slot.
std::uint64_t fib_key(const net::MacAddress& mac) {
  // +1 keeps 0 as the empty-slot sentinel even for the all-zero address.
  return mac.to_u64() + 1;
}

}  // namespace

Switch::Switch(sim::Simulation& sim, std::string name, SwitchConfig config,
               Route route)
    : sim_(sim), name_(std::move(name)), config_(config), route_(std::move(route)) {
  if (route_) return;  // a routed switch holds no FIB
  const std::size_t capacity =
      std::bit_ceil(std::max<std::size_t>(config_.fib_capacity, 2 * kProbeWindow));
  fib_.resize(capacity);
  fib_mask_ = capacity - 1;
}

Switch::~Switch() = default;

int Switch::attach(LinkPort& port) {
  const int index = static_cast<int>(ports_.size());
  ports_.push_back(&port);
  sinks_.push_back(std::make_unique<PortSink>(this, index));
  port.connect_sink(sinks_.back().get());
  return index;
}

std::size_t Switch::home_slot(std::uint64_t key) const {
  // splitmix64 finalizer: full-avalanche spread of the 48-bit MAC space
  // across the slot array.
  std::uint64_t h = key;
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebULL;
  h ^= h >> 31;
  return static_cast<std::size_t>(h) & fib_mask_;
}

int Switch::lookup(const net::MacAddress& mac) const {
  if (route_) return route_(mac);
  const std::uint64_t key = fib_key(mac);
  const std::size_t home = home_slot(key);
  for (std::size_t i = 0; i < kProbeWindow; ++i) {
    const FibEntry& entry = fib_[(home + i) & fib_mask_];
    if (entry.key != key) continue;
    if (sim_.now() - entry.learned > config_.mac_table_aging) {
      return -1;  // aged out; the slot stays until relearned or evicted
    }
    return entry.port;
  }
  return -1;
}

void Switch::learn(const net::MacAddress& mac, int port) {
  const std::uint64_t key = fib_key(mac);
  const std::size_t home = home_slot(key);
  std::size_t empty_slot = fib_.size();   // sentinel: none found
  std::size_t victim_slot = fib_.size();  // stalest entry in the window
  for (std::size_t i = 0; i < kProbeWindow; ++i) {
    const std::size_t slot = (home + i) & fib_mask_;
    FibEntry& entry = fib_[slot];
    if (entry.key == key) {
      entry.port = port;
      entry.learned = sim_.now();
      return;
    }
    if (entry.key == 0) {
      if (empty_slot == fib_.size()) empty_slot = slot;
      continue;
    }
    if (victim_slot == fib_.size() || entry.learned < fib_[victim_slot].learned) {
      victim_slot = slot;
    }
  }
  std::size_t slot = empty_slot;
  if (slot == fib_.size()) {
    slot = victim_slot;  // window full: replace its stalest entry
    ++stats_.fib_evictions;
  } else {
    ++fib_live_;
  }
  fib_[slot] = FibEntry{key, port, sim_.now()};
}

void Switch::handle_frame(int ingress, net::Packet pkt) {
  // A malformed Ethernet header cannot be forwarded anywhere. The cached
  // parse is shared with every NIC and firewall the frame later reaches.
  const net::FrameView* view = pkt.view();
  if (view == nullptr) return;
  const net::EthernetHeader& eth = view->eth;

  // A learning switch learns the source address on the ingress port.
  if (!route_ && !eth.src.is_multicast()) {
    learn(eth.src, ingress);
  }

  const int egress = eth.dst.is_multicast() ? -1 : lookup(eth.dst);
  if (egress == ingress) {
    // Destination lives on the ingress segment; a real switch filters this.
    ++stats_.filtered;
    return;
  }

  auto deliver_after_latency = [this](int port, net::Packet p) {
    sim_.schedule(config_.forwarding_delay,
                  [this, port, pk = std::move(p)]() mutable {
                    forward(port, std::move(pk));
                  });
  };

  if (egress >= 0) {
    ++stats_.forwarded;
    deliver_after_latency(egress, std::move(pkt));
    return;
  }

  if (route_) {
    // A routed switch never floods: redundant-path fabrics would loop.
    ++stats_.no_route_drops;
    return;
  }

  // Flood to all other ports: each copy is a refcount bump on the shared
  // frame buffer, never a duplication of the payload bytes.
  ++stats_.flooded;
  for (int p = 0; p < num_ports(); ++p) {
    if (p == ingress) continue;
    deliver_after_latency(p, pkt);
  }
}

void Switch::forward(int egress, net::Packet pkt) {
  BARB_ASSERT(egress >= 0 && egress < num_ports());
  ports_[static_cast<std::size_t>(egress)]->send(std::move(pkt));
}

void Switch::register_metrics(telemetry::MetricRegistry& registry,
                              const std::string& labels) const {
  registry.counter_fn("switch.forwarded", labels,
                      [this] { return static_cast<double>(stats_.forwarded); });
  registry.counter_fn("switch.flooded", labels,
                      [this] { return static_cast<double>(stats_.flooded); });
  registry.counter_fn("switch.filtered", labels,
                      [this] { return static_cast<double>(stats_.filtered); });
  for (int p = 0; p < num_ports(); ++p) {
    const LinkPort* port = ports_[static_cast<std::size_t>(p)];
    registry.gauge("switch.egress_queue_depth",
                   telemetry::join_labels(labels, "port=" + std::to_string(p)),
                   [port] { return static_cast<double>(port->queue_depth()); });
    registry.gauge("switch.egress_queued_bytes",
                   telemetry::join_labels(labels, "port=" + std::to_string(p)),
                   [port] { return static_cast<double>(port->queued_bytes()); });
  }
}

void Switch::register_fib_metrics(telemetry::MetricRegistry& registry,
                                  const std::string& labels) const {
  registry.counter_fn("switch.fib_evictions", labels,
                      [this] { return static_cast<double>(stats_.fib_evictions); });
  registry.counter_fn("switch.no_route_drops", labels,
                      [this] { return static_cast<double>(stats_.no_route_drops); });
  registry.gauge("switch.fib_entries", labels,
                 [this] { return static_cast<double>(fib_size()); });
  registry.gauge("switch.fib_bytes", labels,
                 [this] { return static_cast<double>(fib_memory_bytes()); });
}

std::size_t Switch::port_memory_bytes() const {
  return util::heap_bytes(ports_) + util::heap_bytes(sinks_) +
         sinks_.size() * sizeof(PortSink) + util::heap_bytes(name_);
}

}  // namespace barb::link
