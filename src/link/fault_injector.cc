#include "link/fault_injector.h"

#include <utility>
#include <vector>

namespace barb::link {

void FaultInjector::on_wire_transit(LinkPort& port, net::Packet pkt) {
  ++stats_.frames;

  // Loss decisions first: a lost frame consumes no further draws, keeping
  // the stream cheap under heavy loss. i.i.d. loss, then the burst chain.
  if (profile_.loss > 0 && rng_.bernoulli(profile_.loss)) {
    ++stats_.lost_random;
    return;
  }
  if (profile_.ge_p_good_to_bad > 0 || profile_.ge_p_bad_to_good > 0 ||
      profile_.ge_loss_good > 0 || profile_.ge_loss_bad > 0) {
    if (ge_bad_) {
      if (rng_.bernoulli(profile_.ge_p_bad_to_good)) ge_bad_ = false;
    } else {
      if (rng_.bernoulli(profile_.ge_p_good_to_bad)) ge_bad_ = true;
    }
    const double p = ge_bad_ ? profile_.ge_loss_bad : profile_.ge_loss_good;
    if (p > 0 && rng_.bernoulli(p)) {
      ++stats_.lost_burst;
      return;
    }
  }

  if (profile_.corruption > 0 && pkt.size() > 0 &&
      rng_.bernoulli(profile_.corruption)) {
    // Frame buffers are immutable and may be shared (a switch flood holds
    // refcounts); corruption rebuilds the packet around a mutated copy.
    std::vector<std::uint8_t> bytes = pkt.copy_bytes();
    const std::size_t offset = rng_.uniform(bytes.size());
    bytes[offset] ^= static_cast<std::uint8_t>(1u << rng_.uniform(8));
    ++stats_.corrupted;
    pkt = net::Packet{std::move(bytes), pkt.created, pkt.id};
  }

  sim::Duration delay;
  if (profile_.jitter_max > sim::Duration()) {
    const auto extra = sim::Duration::nanoseconds(static_cast<std::int64_t>(
        rng_.uniform_real() * static_cast<double>(profile_.jitter_max.ns())));
    if (extra > sim::Duration()) ++stats_.jittered;
    delay += extra;
  }
  if (profile_.reorder > 0 && rng_.bernoulli(profile_.reorder)) {
    const int window = profile_.reorder_window < 1 ? 1 : profile_.reorder_window;
    delay += profile_.reorder_hold *
             static_cast<std::int64_t>(1 + rng_.uniform(
                 static_cast<std::uint64_t>(window)));
    ++stats_.reordered;
  }

  if (profile_.duplication > 0 && rng_.bernoulli(profile_.duplication)) {
    // The copy trails the original by one wire occupancy, like a frame
    // transmitted twice back to back. Copying a Packet is a refcount bump.
    ++stats_.duplicated;
    port.schedule_delivery(pkt, delay + port.frame_time(pkt.size()));
  }
  port.schedule_delivery(std::move(pkt), delay);
}

void FaultInjector::register_metrics(telemetry::MetricRegistry& registry,
                                     const std::string& labels) const {
  auto counter = [&](const char* name, const std::uint64_t* field) {
    registry.counter_fn(name, labels,
                        [field] { return static_cast<double>(*field); });
  };
  counter("fault.frames", &stats_.frames);
  counter("fault.lost_random", &stats_.lost_random);
  counter("fault.lost_burst", &stats_.lost_burst);
  counter("fault.corrupted", &stats_.corrupted);
  counter("fault.duplicated", &stats_.duplicated);
  counter("fault.reordered", &stats_.reordered);
  counter("fault.jittered", &stats_.jittered);
}

}  // namespace barb::link
