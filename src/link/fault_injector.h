// Deterministic link fault injection.
//
// A FaultInjector sits on the transmit side of one LinkPort and perturbs the
// wire transit of every frame that port serializes: i.i.d. loss, burst loss
// via a 2-state Gilbert–Elliott chain, bit corruption, duplication, latency
// jitter, and reordering (a chosen frame is held back so later frames
// overtake it). The injector draws from its OWN sim::Random stream, seeded
// explicitly by the owner (conventionally derived from the experiment point
// seed plus the port index), so a scenario replays byte-identically from its
// seed and is independent of worker count, scheduler backend, and whatever
// else consumes the Simulation's shared RNG.
//
// A port with no injector attached takes the exact pre-fault code path and
// performs zero RNG draws — figure artifacts are unchanged unless a profile
// is explicitly enabled.
#pragma once

#include <cstdint>
#include <string>

#include "link/link.h"
#include "net/packet.h"
#include "sim/random.h"
#include "sim/time.h"
#include "telemetry/registry.h"

namespace barb::link {

struct FaultProfile {
  // Independent per-frame loss probability.
  double loss = 0.0;
  // Probability a delivered frame is delivered twice (the copy arrives one
  // frame-time after the original, like a duplicated wire transmission).
  double duplication = 0.0;
  // Probability a frame has one random bit flipped anywhere in it. Every
  // checksum layer (Ethernet-less in the sim, so IPv4/TCP/UDP/ICMP/AEAD)
  // must catch the mangling; see nic.rx_checksum_drops.
  double corruption = 0.0;
  // Probability a frame is held back so frames behind it overtake it.
  double reorder = 0.0;
  // Held frames are delayed by reorder_hold * uniform{1..reorder_window}.
  int reorder_window = 4;
  sim::Duration reorder_hold = sim::Duration::milliseconds(1);
  // Uniform extra latency in [0, jitter_max] added to every frame.
  sim::Duration jitter_max;
  // Gilbert–Elliott burst loss: per-frame state transitions good->bad with
  // p_good_to_bad and bad->good with p_bad_to_good; frames are lost with the
  // current state's loss probability. All zeros disables the chain.
  double ge_p_good_to_bad = 0.0;
  double ge_p_bad_to_good = 0.0;
  double ge_loss_good = 0.0;
  double ge_loss_bad = 0.0;

  bool enabled() const {
    return loss > 0 || duplication > 0 || corruption > 0 || reorder > 0 ||
           jitter_max > sim::Duration() ||
           (ge_p_good_to_bad > 0 && ge_loss_bad > 0) || ge_loss_good > 0;
  }
};

struct FaultInjectorStats {
  std::uint64_t frames = 0;       // frames that entered the injector
  std::uint64_t lost_random = 0;  // dropped by i.i.d. loss
  std::uint64_t lost_burst = 0;   // dropped by the Gilbert–Elliott chain
  std::uint64_t corrupted = 0;
  std::uint64_t duplicated = 0;   // extra deliveries scheduled
  std::uint64_t reordered = 0;    // frames held back past later frames
  std::uint64_t jittered = 0;     // frames given nonzero extra latency

  // Frames removed from the wire (the conservation oracle uses this:
  // rx == tx - lost() + duplicated, exactly, at quiescence).
  std::uint64_t lost() const { return lost_random + lost_burst; }
};

class FaultInjector {
 public:
  FaultInjector(FaultProfile profile, std::uint64_t seed)
      : profile_(profile), rng_(seed) {}

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  const FaultProfile& profile() const { return profile_; }
  const FaultInjectorStats& stats() const { return stats_; }
  bool in_burst_state() const { return ge_bad_; }

  // Called by LinkPort for every frame it serialized, at the instant the
  // frame would reach the peer unperturbed (serialization end +
  // propagation), in wire order. Decides the frame's fate and schedules
  // zero, one, or two deliveries on the port's peer relative to now.
  void on_wire_transit(LinkPort& port, net::Packet pkt);

  // Registers "fault.*" counters under the given label set (conventionally
  // the owning port's "link=<name>,side=<side>" labels).
  void register_metrics(telemetry::MetricRegistry& registry,
                        const std::string& labels) const;

 private:
  FaultProfile profile_;
  sim::Random rng_;
  bool ge_bad_ = false;
  FaultInjectorStats stats_;
};

}  // namespace barb::link
