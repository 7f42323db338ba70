#include "link/link.h"

#include <utility>

#include "link/fault_injector.h"
#include "util/assert.h"
#include "util/logging.h"

namespace barb::link {

Link::Link(sim::Simulation& sim, LinkConfig config) : sim_(sim), config_(config) {
  a_.link_ = this;
  a_.peer_ = &b_;
  b_.link_ = this;
  b_.peer_ = &a_;
}

LinkPort::~LinkPort() { batch_timer_.cancel(); }

void LinkPort::set_fault_injector(FaultInjector* injector) {
  // Frames already queued were sent under the previous fault model; keep
  // every frame of a run under one.
  BARB_ASSERT_MSG(pending_.empty(), "install fault injectors before traffic");
  fault_ = injector;
}

sim::Duration LinkPort::frame_time(std::size_t frame_bytes) const {
  BARB_ASSERT(link_ != nullptr);
  const std::size_t wire_bytes =
      std::max(frame_bytes, net::kEthernetMinFrameNoFcs) + net::kEthernetWireOverhead;
  const double seconds =
      static_cast<double>(wire_bytes) * 8.0 / link_->config().rate_bps;
  return sim::Duration::from_seconds(seconds);
}

void LinkPort::send(net::Packet pkt) {
  BARB_ASSERT_MSG(link_ != nullptr, "port not attached to a link");
  const sim::TimePoint now = link_->sim_.now();
  advance_accounting(now);
  const std::size_t bytes = pkt.size();
  const bool busy = tx_free_at_ > now;
  if (busy) {
    if (queued_bytes_ + bytes > link_->config().queue_bytes) {
      ++stats_.dropped_frames;
      return;
    }
    queued_bytes_ += bytes;
  }
  const sim::TimePoint ser_start = busy ? tx_free_at_ : now;
  const sim::Duration tx_time = frame_time(bytes);
  tx_free_at_ = ser_start + tx_time;
  pending_.push_back(PendingFrame{ser_start, std::move(pkt)});
  if (!busy) {
    // Serialization starts now: account it immediately.
    stats_.tx_frames++;
    stats_.tx_bytes += bytes;
    stats_.busy_time += tx_time;
    ++acct_idx_;
  }
  if (!batch_timer_.pending()) arm_batch_timer(deliver_at(pending_.front()));
}

sim::TimePoint LinkPort::deliver_at(const PendingFrame& f) const {
  return f.ser_start + frame_time(f.pkt.size()) + link_->config().propagation;
}

void LinkPort::advance_accounting(sim::TimePoint now) const {
  while (acct_idx_ < pending_.size()) {
    const PendingFrame& f = pending_[acct_idx_];
    if (f.ser_start > now) break;
    const std::size_t bytes = f.pkt.size();
    stats_.tx_frames++;
    stats_.tx_bytes += bytes;
    stats_.busy_time += frame_time(bytes);
    queued_bytes_ -= bytes;
    ++acct_idx_;
  }
}

void LinkPort::arm_batch_timer(sim::TimePoint at) {
  batch_timer_ = link_->sim_.schedule_at(at, [this] { deliver_batch(); });
}

void LinkPort::deliver_batch() {
  const sim::TimePoint now = link_->sim_.now();
  advance_accounting(now);
  while (!pending_.empty()) {
    const sim::TimePoint at = deliver_at(pending_.front());
    if (at > now) {
      arm_batch_timer(at);
      return;
    }
    // Delivery follows serialization end, so the head frame's TX accounting
    // has always been applied by the advance above.
    BARB_ASSERT(acct_idx_ > 0);
    net::Packet pkt = std::move(pending_.front().pkt);
    pending_.pop_front();
    --acct_idx_;
    if (fault_ != nullptr) {
      // The injector decides the frame's fate at its unperturbed arrival.
      fault_->on_wire_transit(*this, std::move(pkt));
      continue;
    }
    peer_->stats_.rx_frames++;
    peer_->stats_.rx_bytes += pkt.size();
    if (peer_->sink_ != nullptr) peer_->sink_->deliver(std::move(pkt));
  }
}

const LinkPortStats& LinkPort::stats() const {
  if (!pending_.empty()) advance_accounting(link_->sim_.now());
  return stats_;
}

std::size_t LinkPort::queue_depth() const {
  if (link_ == nullptr) return 0;
  const sim::TimePoint now = link_->sim_.now();
  advance_accounting(now);
  const std::size_t waiting = pending_.size() - acct_idx_;
  return waiting + (tx_free_at_ > now ? 1 : 0);
}

std::size_t LinkPort::queued_bytes() const {
  if (!pending_.empty()) advance_accounting(link_->sim_.now());
  return queued_bytes_;
}

void LinkPort::schedule_delivery(net::Packet pkt, sim::Duration delay) {
  link_->simulation().schedule(delay, [peer = peer_, p = std::move(pkt)]() mutable {
    peer->stats_.rx_frames++;
    peer->stats_.rx_bytes += p.size();
    if (peer->sink_ != nullptr) peer->sink_->deliver(std::move(p));
  });
}

void LinkPort::register_metrics(telemetry::MetricRegistry& registry,
                                const std::string& labels) const {
  registry.counter_fn("link.tx_frames", labels,
                      [this] { return static_cast<double>(stats().tx_frames); });
  registry.counter_fn("link.tx_bytes", labels,
                      [this] { return static_cast<double>(stats().tx_bytes); });
  registry.counter_fn("link.rx_frames", labels,
                      [this] { return static_cast<double>(stats().rx_frames); });
  registry.counter_fn("link.rx_bytes", labels,
                      [this] { return static_cast<double>(stats().rx_bytes); });
  registry.counter_fn("link.tx_drops", labels,
                      [this] { return static_cast<double>(stats().dropped_frames); });
  registry.counter_fn("link.busy_seconds", labels,
                      [this] { return stats().busy_time.to_seconds(); });
  registry.gauge("link.queue_depth", labels,
                 [this] { return static_cast<double>(queue_depth()); });
  registry.gauge("link.queued_bytes", labels,
                 [this] { return static_cast<double>(queued_bytes()); });
}

}  // namespace barb::link
