#include "link/link.h"

#include <cstdlib>
#include <utility>

#include "link/fault_injector.h"
#include "util/assert.h"
#include "util/logging.h"

namespace barb::link {

bool batch_delivery_enabled(bool default_batched) {
  const char* env = std::getenv("BARB_LINK_BATCH");
  if (env == nullptr || *env == '\0') return default_batched;
  return env[0] != '0';
}

Link::Link(sim::Simulation& sim, LinkConfig config) : sim_(sim), config_(config) {
  a_.link_ = this;
  a_.peer_ = &b_;
  b_.link_ = this;
  b_.peer_ = &a_;
}

LinkPort::~LinkPort() { batch_timer_.cancel(); }

void LinkPort::set_fault_injector(FaultInjector* injector) {
  // A port runs one delivery engine for its lifetime; installing an injector
  // after batched traffic has queued frames would mix the two.
  BARB_ASSERT_MSG(pending_.empty(), "install fault injectors before traffic");
  fault_ = injector;
}

bool LinkPort::use_batched() const {
  return link_ != nullptr && link_->config().batched && fault_ == nullptr;
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
  if (use_batched()) {
    const sim::TimePoint now = link_->sim_.now();
    advance_accounting(now);
    const bool busy = tx_free_at_ > now;
    if (busy) {
      if (queued_bytes_ + pkt.size() > link_->config().queue_bytes) {
        ++stats_.dropped_frames;
        return;
      }
      queued_bytes_ += pkt.size();
    }
    const sim::TimePoint ser_start = busy ? tx_free_at_ : now;
    const sim::Duration tx_time = frame_time(pkt.size());
    const sim::TimePoint ser_end = ser_start + tx_time;
    const sim::TimePoint deliver_at = ser_end + link_->config().propagation;
    tx_free_at_ = ser_end;
    const std::size_t bytes = pkt.size();
    pending_.push_back(
        PendingFrame{ser_start, deliver_at, tx_time, bytes, std::move(pkt)});
    if (!busy) {
      // Serialization starts now: account it immediately, exactly where the
      // per-frame engine does.
      stats_.tx_frames++;
      stats_.tx_bytes += bytes;
      stats_.busy_time += tx_time;
      ++acct_idx_;
    }
    if (!batch_timer_.pending()) arm_batch_timer(pending_.front().deliver_at);
    return;
  }
  if (transmitting_) {
    if (queued_bytes_ + pkt.size() > link_->config().queue_bytes) {
      ++stats_.dropped_frames;
      return;
    }
    queued_bytes_ += pkt.size();
    queue_.push_back(std::move(pkt));
    return;
  }
  start_transmission(std::move(pkt));
}

void LinkPort::advance_accounting(sim::TimePoint now) const {
  while (acct_idx_ < pending_.size()) {
    const PendingFrame& f = pending_[acct_idx_];
    if (f.ser_start > now) break;
    stats_.tx_frames++;
    stats_.tx_bytes += f.bytes;
    stats_.busy_time += f.tx_time;
    queued_bytes_ -= f.bytes;
    ++acct_idx_;
  }
}

void LinkPort::arm_batch_timer(sim::TimePoint at) {
  batch_timer_ = link_->sim_.schedule_at(at, [this] { deliver_batch(); });
}

void LinkPort::deliver_batch() {
  const sim::TimePoint now = link_->sim_.now();
  advance_accounting(now);
  while (!pending_.empty() && pending_.front().deliver_at <= now) {
    // Delivery follows serialization end, so the head frame's TX accounting
    // has always been applied by the advance above.
    BARB_ASSERT(acct_idx_ > 0);
    PendingFrame f = std::move(pending_.front());
    pending_.pop_front();
    --acct_idx_;
    peer_->stats_.rx_frames++;
    peer_->stats_.rx_bytes += f.bytes;
    if (peer_->sink_ != nullptr) peer_->sink_->deliver(std::move(f.pkt));
  }
  if (!pending_.empty()) arm_batch_timer(pending_.front().deliver_at);
}

const LinkPortStats& LinkPort::stats() const {
  if (use_batched() && !pending_.empty()) advance_accounting(link_->sim_.now());
  return stats_;
}

std::size_t LinkPort::queue_depth() const {
  if (use_batched()) {
    if (link_ == nullptr) return 0;
    const sim::TimePoint now = link_->sim_.now();
    advance_accounting(now);
    const std::size_t waiting = pending_.size() - acct_idx_;
    return waiting + (tx_free_at_ > now ? 1 : 0);
  }
  return queue_.size() + (transmitting_ ? 1 : 0);
}

std::size_t LinkPort::queued_bytes() const {
  if (use_batched() && !pending_.empty()) advance_accounting(link_->sim_.now());
  return queued_bytes_;
}

void LinkPort::start_transmission(net::Packet pkt) {
  transmitting_ = true;
  const auto tx_time = frame_time(pkt.size());
  stats_.tx_frames++;
  stats_.tx_bytes += pkt.size();
  stats_.busy_time += tx_time;

  auto& sim = link_->simulation();
  const auto arrival = tx_time + link_->config().propagation;
  // Delivery to the peer after serialization + propagation — perturbed by
  // the fault injector when one is installed on this direction.
  if (fault_ != nullptr) {
    fault_->on_wire_transit(*this, std::move(pkt), arrival);
  } else {
    schedule_delivery(std::move(pkt), arrival);
  }
  // The transmitter frees after serialization (IFG already accounted in
  // frame_time), independent of propagation.
  sim.schedule(tx_time, [this] { on_transmit_complete(); });
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

void LinkPort::on_transmit_complete() {
  transmitting_ = false;
  if (!queue_.empty()) {
    net::Packet next = std::move(queue_.front());
    queue_.pop_front();
    queued_bytes_ -= next.size();
    start_transmission(std::move(next));
  }
}

}  // namespace barb::link
