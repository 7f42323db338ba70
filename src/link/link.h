// Full-duplex point-to-point Ethernet link.
//
// Each direction serializes one frame at a time at the configured rate
// (including preamble, FCS, and inter-frame gap, so 100 Mbps yields the real
// maximum frame rates: 8127 fps at 1518-byte frames, 148810 fps at 64-byte
// frames). Each LinkPort owns a finite drop-tail transmit queue; the queue on
// the switch side of a link is exactly the switch egress queue, which is what
// couples a flood to legitimate traffic in the paper's no-firewall baseline.
//
// Delivery. Each port keeps a virtual serialization clock: send() computes a
// frame's serialization window and delivery time arithmetically, frames wait
// in a per-port FIFO, and ONE armed timer per port direction delivers the
// head and re-arms for the next. A frame costs one scheduler event (its
// delivery); freeing the transmitter costs none. TX accounting is applied
// lazily (advance-on-read), so stats and queue gauges sampled at any instant
// see exactly the frames whose serialization has started by then.
//
// Faults. A port with a FaultInjector runs the same engine: a frame leaves
// the FIFO at its unperturbed delivery time (serialization end +
// propagation) and goes to the injector instead of the peer's sink; the
// injector delivers it zero, one, or two times relative to that instant.
// Frames leave the FIFO in serialization order, so the injector's own RNG
// stream sees them in wire order.
#pragma once

#include <cstdint>
#include <deque>
#include <string>

#include "link/frame_sink.h"
#include "net/ethernet.h"
#include "net/packet.h"
#include "sim/simulation.h"
#include "telemetry/registry.h"
#include "util/heap_bytes.h"

namespace barb::link {

struct LinkConfig {
  double rate_bps = 100e6;                                   // 100 Mbps Ethernet
  sim::Duration propagation = sim::Duration::nanoseconds(500);  // ~100 m of cable
  // Per-direction TX buffering in BYTES (switches buffer bytes, not frames;
  // byte accounting matters under flood: minimum-size attack frames are ~25x
  // cheaper to queue than full-size data frames).
  std::size_t queue_bytes = 150 * 1024;
};

struct LinkPortStats {
  std::uint64_t tx_frames = 0;
  std::uint64_t tx_bytes = 0;
  std::uint64_t rx_frames = 0;
  std::uint64_t rx_bytes = 0;
  std::uint64_t dropped_frames = 0;  // TX queue overflow
  // Accumulated serialization time; delta(busy_time)/delta(t) between probe
  // samples is the link's TX utilization over that interval.
  sim::Duration busy_time;
};

class Link;
class FaultInjector;

// One side's attachment point to a link. send() transmits toward the peer;
// frames from the peer are handed to the connected sink.
class LinkPort {
 public:
  ~LinkPort();

  // Registers the local receiver for frames arriving from the peer.
  void connect_sink(FrameSink* sink) { sink_ = sink; }
  FrameSink* sink() const { return sink_; }
  // The port on the other side of this link (null until attached).
  LinkPort* peer() const { return peer_; }

  // Installs a fault injector on this port's TRANSMIT direction (nullptr
  // removes it; not owned). Every frame this port serializes is routed
  // through the injector, which may drop, corrupt, duplicate, delay, or
  // reorder its delivery to the peer. Without an injector the port takes
  // the exact fault-free path and performs no RNG draws. Install before any
  // traffic, so every frame of a run sees one fault model.
  void set_fault_injector(FaultInjector* injector);
  FaultInjector* fault_injector() const { return fault_; }

  // Enqueues a frame for transmission; drops it if the TX queue is full.
  void send(net::Packet pkt);

  const LinkPortStats& stats() const;
  std::size_t queue_depth() const;
  std::size_t queued_bytes() const;
  bool connected() const { return link_ != nullptr; }
  // Heap held by the FIFO of frames sent but not yet delivered (the frame
  // buffers themselves belong to the buffer pool).
  std::size_t memory_bytes() const { return util::heap_bytes(pending_); }

  // Registers this port's stats (frames/bytes/drops/busy time, queue depth)
  // under "link.*" with the given label set. The registry must not be
  // sampled after this port is destroyed.
  void register_metrics(telemetry::MetricRegistry& registry,
                        const std::string& labels) const;

  // Wire occupancy time of a frame on this link.
  sim::Duration frame_time(std::size_t frame_bytes) const;

 private:
  friend class Link;
  friend class FaultInjector;

  // Schedules delivery of `pkt` to the peer after `delay`; rx accounting
  // happens at delivery time. The fault injector calls this zero, one, or
  // two times per transmitted frame.
  void schedule_delivery(net::Packet pkt, sim::Duration delay);

  // Only what the frame's size cannot give back: a queue of minimum-size
  // flood frames holds thousands of these.
  struct PendingFrame {
    sim::TimePoint ser_start;  // transmitter picks the frame up
    net::Packet pkt;
  };
  // Serialization end + propagation.
  sim::TimePoint deliver_at(const PendingFrame& f) const;

  // Applies TX-side accounting (tx_frames/tx_bytes/busy_time, queue drain)
  // for every pending frame whose serialization has started by `now`.
  // Observers (stats(), queue gauges) advance to the current instant before
  // reading.
  void advance_accounting(sim::TimePoint now) const;
  // Delivers (or hands to the fault injector) every frame due by now.
  void deliver_batch();
  void arm_batch_timer(sim::TimePoint at);

  Link* link_ = nullptr;
  LinkPort* peer_ = nullptr;
  FrameSink* sink_ = nullptr;
  FaultInjector* fault_ = nullptr;

  // Frames sent but not yet delivered, FIFO in serialization (= delivery)
  // order. Entries below acct_idx_ have had their TX accounting applied;
  // queued_bytes_ sums the entries above it.
  std::deque<PendingFrame> pending_;
  mutable std::size_t acct_idx_ = 0;
  sim::TimePoint tx_free_at_;
  sim::EventHandle batch_timer_;

  mutable std::size_t queued_bytes_ = 0;
  mutable LinkPortStats stats_;
};

class Link {
 public:
  Link(sim::Simulation& sim, LinkConfig config = {});

  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  LinkPort& a() { return a_; }
  LinkPort& b() { return b_; }
  const LinkConfig& config() const { return config_; }
  sim::Simulation& simulation() { return sim_; }
  // Heap held by both ports' FIFOs.
  std::size_t memory_bytes() const { return a_.memory_bytes() + b_.memory_bytes(); }

 private:
  friend class LinkPort;

  sim::Simulation& sim_;
  LinkConfig config_;
  LinkPort a_;
  LinkPort b_;
};

}  // namespace barb::link
