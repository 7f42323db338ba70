// TCP (RFC 793 + Reno congestion control, RFC 5681/6298 style).
//
// Feature set matches what the paper's experiments exercise on Linux 2.4
// endpoints: three-way handshake with MSS negotiation, cumulative ACKs with
// delayed ACK, sliding window bounded by min(cwnd, peer window), slow start /
// congestion avoidance / fast retransmit / fast recovery, exponential RTO
// backoff with Karn's rule, out-of-order reassembly, graceful FIN teardown
// with TIME_WAIT, RST generation for segments to closed ports (the response
// traffic that halves flood tolerance in the "allow" experiments).
//
// Documented deviations from a production stack: fixed receive window (no
// window scaling — irrelevant at 100 Mbps LAN RTTs), no SACK, no Nagle
// (senders write in large chunks), TIME_WAIT shortened to 1 s so long
// experiment runs do not exhaust the ephemeral port space.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "net/five_tuple.h"
#include "net/frame_view.h"
#include "net/tcp_header.h"
#include "sim/scheduler.h"
#include "sim/time.h"
#include "telemetry/registry.h"

namespace barb::stack {

class Host;
class TcpLayer;
class TcpListener;

// 32-bit sequence-space comparisons (valid while distances stay < 2^31).
constexpr bool seq_lt(std::uint32_t a, std::uint32_t b) {
  return static_cast<std::int32_t>(a - b) < 0;
}
constexpr bool seq_le(std::uint32_t a, std::uint32_t b) {
  return static_cast<std::int32_t>(a - b) <= 0;
}
constexpr bool seq_gt(std::uint32_t a, std::uint32_t b) { return seq_lt(b, a); }
constexpr bool seq_ge(std::uint32_t a, std::uint32_t b) { return seq_le(b, a); }

enum class TcpState {
  kClosed,
  kSynSent,
  kSynRcvd,
  kEstablished,
  kFinWait1,
  kFinWait2,
  kClosing,
  kTimeWait,
  kCloseWait,
  kLastAck,
};

const char* to_string(TcpState state);

// Bytes a connection's send buffer holds; send() accepts no more.
inline constexpr std::size_t kTcpSendBufferBytes = 256 * 1024;

struct TcpConnectionStats {
  std::uint64_t segments_sent = 0;
  std::uint64_t segments_received = 0;
  std::uint64_t bytes_sent = 0;      // payload bytes, first transmission
  std::uint64_t bytes_acked = 0;     // payload bytes acknowledged by the peer
  std::uint64_t bytes_received = 0;  // payload bytes delivered in order
  std::uint64_t retransmissions = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t fast_retransmits = 0;
};

class TcpConnection : public std::enable_shared_from_this<TcpConnection> {
 public:
  // --- application callbacks (all optional) ---
  // Applications routinely capture the connection's own shared_ptr in these
  // (e.g. `conn->on_peer_closed = [conn] { conn->close(); }`), which forms a
  // self-cycle. The stack breaks it: to_closed() clears every callback after
  // firing on_closed, and ~TcpLayer() clears them on connections still alive
  // at teardown, so the last external shared_ptr going away always frees the
  // connection (LeakSanitizer runs with detect_leaks=1 on this basis).
  std::function<void()> on_connected;
  std::function<void(std::span<const std::uint8_t>)> on_data;
  std::function<void()> on_peer_closed;  // FIN received (EOF)
  std::function<void()> on_closed;       // connection fully gone (incl. RST)
  std::function<void()> on_send_space;   // send buffer has room again

  ~TcpConnection();

  // Drops all five application callbacks (and any shared_ptrs they captured).
  void reset_callbacks();

  // Live TcpConnection objects in this process, across all threads — the
  // ownership-cycle regression tests assert this returns to zero once every
  // stack and application handle is gone.
  static std::int64_t live_instances();

  TcpState state() const { return state_; }
  // Local-perspective tuple (src = this host).
  const net::FiveTuple& key() const { return key_; }
  const TcpConnectionStats& stats() const { return stats_; }
  std::uint16_t mss() const { return mss_; }
  double cwnd_bytes() const { return cwnd_; }
  sim::Duration smoothed_rtt() const { return sim::Duration::from_seconds(srtt_); }
  // Heap held by the send buffer and the out-of-order reassembly queue.
  std::size_t memory_bytes() const;

  // Queues data for transmission; returns the number of bytes accepted
  // (bounded by send-buffer space).
  std::size_t send(std::span<const std::uint8_t> data);
  std::size_t send_space() const;

  // Graceful close (FIN after queued data). Further send() calls fail.
  void close();
  // Hard close: sends RST, drops everything.
  void abort();

  // --- used by TcpLayer ---
  void handle_segment(const net::TcpHeader& h, std::span<const std::uint8_t> payload);

 private:
  friend class TcpLayer;

  // `local_mss` is the MSS this end advertises (HostConfig::mss).
  TcpConnection(TcpLayer& layer, const net::FiveTuple& key, std::uint16_t local_mss);

  void start_active_open();
  void start_passive_open(const net::TcpHeader& syn);

  void handle_syn_sent(const net::TcpHeader& h);
  void process_ack(const net::TcpHeader& h);
  void process_data(const net::TcpHeader& h, std::span<const std::uint8_t> payload);
  void deliver_reassembled();
  void maybe_complete_fin_handshake();

  void output();
  void emit(std::uint8_t flags, std::uint32_t seq, std::span<const std::uint8_t> payload,
            bool retransmission);
  void send_ack_now();
  void schedule_delayed_ack();
  void retransmit_head();

  void arm_rtx_timer();
  void on_rto();
  void update_rtt(double sample_seconds);
  sim::Duration current_rto() const;

  void enter_established();
  void enter_time_wait();
  void to_closed(bool reset);

  std::uint32_t flight_size() const { return snd_nxt_ - snd_una_; }
  std::size_t unsent_bytes() const;

  TcpLayer& layer_;
  net::FiveTuple key_;
  std::uint16_t local_mss_;
  TcpState state_ = TcpState::kClosed;

  // Send side. send_buf_ holds payload bytes starting at sequence
  // send_buf_seq_ (== snd_una_ once established, unless a FIN is in flight).
  std::uint32_t iss_ = 0;
  std::uint32_t snd_una_ = 0;
  std::uint32_t snd_nxt_ = 0;
  std::uint32_t snd_max_ = 0;  // highest sequence ever sent (for go-back-N)
  std::uint32_t snd_wnd_ = 0;
  std::uint32_t send_buf_seq_ = 0;
  std::deque<std::uint8_t> send_buf_;
  bool fin_queued_ = false;
  bool fin_sent_ = false;
  std::uint32_t fin_seq_ = 0;
  std::uint16_t mss_ = 536;

  // Congestion control (bytes; double so congestion avoidance accumulates).
  double cwnd_ = 0;
  double ssthresh_ = 1e9;
  int dup_acks_ = 0;
  bool in_fast_recovery_ = false;

  // Receive side.
  std::uint32_t irs_ = 0;
  std::uint32_t rcv_nxt_ = 0;
  struct SeqLess {
    bool operator()(std::uint32_t a, std::uint32_t b) const { return seq_lt(a, b); }
  };
  std::map<std::uint32_t, std::vector<std::uint8_t>, SeqLess> reassembly_;
  bool fin_received_ = false;
  std::uint32_t fin_rcv_seq_ = 0;

  // RTT estimation (seconds).
  bool rtt_sampling_ = false;
  std::uint32_t rtt_seq_ = 0;
  sim::TimePoint rtt_sent_at_;
  double srtt_ = 0;
  double rttvar_ = 0;
  bool rtt_valid_ = false;
  int backoff_ = 0;
  int consecutive_timeouts_ = 0;

  sim::EventHandle rtx_timer_;
  sim::EventHandle delack_timer_;
  sim::EventHandle timewait_timer_;
  int unacked_segments_ = 0;  // received-with-data since last ACK sent
  bool accept_pending_ = false;  // passive open not yet handed to the listener
  TcpListener* backlog_listener_ = nullptr;  // holds our half-open slot

  TcpConnectionStats stats_;
};

class TcpListener {
 public:
  using AcceptFn = std::function<void(std::shared_ptr<TcpConnection>)>;

  std::uint16_t port() const { return port_; }
  // Stops accepting; existing connections are unaffected. The pointer is
  // dead afterwards.
  void close();

  // SYN backlog: half-open (SYN_RCVD) connections this listener tolerates;
  // further SYNs are silently dropped, the classic SYN-flood choke point on
  // paper-era stacks.
  std::size_t backlog = 128;
  std::size_t half_open() const { return half_open_; }
  std::uint64_t syn_drops() const { return syn_drops_; }

 private:
  friend class TcpLayer;
  friend class TcpConnection;
  TcpListener(TcpLayer& layer, std::uint16_t port, AcceptFn on_accept)
      : layer_(layer), port_(port), on_accept_(std::move(on_accept)) {}

  TcpLayer& layer_;
  std::uint16_t port_;
  AcceptFn on_accept_;
  std::size_t half_open_ = 0;
  std::uint64_t syn_drops_ = 0;
};

class TcpLayer {
 public:
  explicit TcpLayer(Host& host) : host_(host) {}
  // Breaks application-callback self-cycles on connections still alive at
  // teardown (see TcpConnection callback comment).
  ~TcpLayer();

  void handle_segment(const net::FrameView& v);

  TcpListener* listen(std::uint16_t port, TcpListener::AcceptFn on_accept);
  std::shared_ptr<TcpConnection> connect(net::Ipv4Address dst, std::uint16_t dst_port);

  bool port_in_use(std::uint16_t port) const;
  std::size_t connection_count() const { return connections_.size(); }
  // Heap held: the connection and listener tables and the objects in them.
  std::size_t memory_bytes() const;

  // Host-wide cumulative stats: closed connections' totals plus everything
  // the live connections have accumulated so far.
  TcpConnectionStats aggregate_stats() const;
  // Sum of live connections' congestion windows (bytes).
  double total_cwnd_bytes() const;

  // Registers "tcp.*" counters (segments, bytes, retransmits, timeouts) and
  // gauges (live connections, total cwnd) for this host's stack.
  void register_metrics(telemetry::MetricRegistry& registry,
                        const std::string& labels) const;

 private:
  friend class TcpConnection;
  friend class TcpListener;

  Host& host() { return host_; }
  void notify_accept(const std::shared_ptr<TcpConnection>& conn);
  // Builds and sends one segment for a local-perspective tuple.
  void send_segment(const net::FiveTuple& key, net::TcpHeader header,
                    std::span<const std::uint8_t> payload);
  void send_rst_for(const net::FrameView& v);
  void remove(const net::FiveTuple& key);
  void close_listener(TcpListener* listener);

  Host& host_;
  std::unordered_map<net::FiveTuple, std::shared_ptr<TcpConnection>> connections_;
  std::unordered_map<std::uint16_t, std::unique_ptr<TcpListener>> listeners_;
  TcpConnectionStats closed_totals_;  // accumulated when connections are removed
};

}  // namespace barb::stack
