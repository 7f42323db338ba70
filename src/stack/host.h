// A simulated end host: NIC + IPv4 + ICMP + UDP + TCP.
//
// The stack is callback-driven (no blocking calls): applications open
// sockets, provide receive/accept callbacks, and write data; the stack
// schedules everything through the host's Simulation. This mirrors the
// Linux 2.4 endpoints of the paper's testbed closely enough for the
// experiments: RST on closed TCP ports, rate-limited ICMP port-unreachable
// for UDP, Reno congestion control, delayed ACKs.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>

#include "link/frame_sink.h"
#include "net/frame_view.h"
#include "net/ipv4_address.h"
#include "net/packet.h"
#include "net/packet_builder.h"
#include "sim/simulation.h"
#include "stack/address_directory.h"
#include "stack/nic.h"
#include "stack/packet_filter.h"
#include "telemetry/registry.h"
#include "util/token_bucket.h"

namespace barb::stack {

class UdpLayer;
class UdpSocket;
class TcpLayer;
class TcpConnection;
class TcpListener;

struct HostConfig {
  // Local MSS announced in SYN segments. The testbed lowers this on
  // VPG-protected hosts so encapsulated frames still fit the Ethernet MTU.
  std::uint16_t mss = 1460;
};

struct HostStats {
  std::uint64_t ip_rx = 0;
  std::uint64_t ip_rx_dropped = 0;  // not for us / malformed
  std::uint64_t ip_tx = 0;
  std::uint64_t tcp_rst_sent = 0;
  std::uint64_t icmp_unreachable_sent = 0;
  std::uint64_t icmp_unreachable_suppressed = 0;
  std::uint64_t icmp_echo_replies = 0;
};

class Host : public link::FrameSink {
 public:
  Host(sim::Simulation& sim, std::string name, net::Ipv4Address ip,
       std::unique_ptr<Nic> nic, HostConfig config = {});
  ~Host() override;

  Host(const Host&) = delete;
  Host& operator=(const Host&) = delete;

  sim::Simulation& simulation() { return sim_; }
  const std::string& name() const { return name_; }
  net::Ipv4Address ip() const { return ip_; }
  net::MacAddress mac() const { return nic_->mac(); }
  Nic& nic() { return *nic_; }
  const HostConfig& config() const { return config_; }
  const HostStats& stats() const { return stats_; }

  // Address resolution. Every mapping is installed up front (the paper's
  // results do not depend on ARP dynamics): the fabric (or a test fixture)
  // hands each host one frozen directory of every binding, itself included.
  // Not owned; it must outlive the host's traffic. A host without a
  // directory resolves nothing and so sends nothing.
  void set_directory(const AddressDirectory* directory);
  const AddressDirectory* directory() const { return directory_; }
  std::optional<net::MacAddress> resolve(net::Ipv4Address ip) const {
    if (directory_ == nullptr) return std::nullopt;
    return directory_->lookup(ip);
  }

  // Heap held by the host outside its NIC (which reports its own) and the
  // shared directory (counted once per fabric): the UDP and TCP layers with
  // their sockets and connections, and the name.
  std::size_t stack_memory_bytes() const;

  // Installs a host-resident packet filter (software firewall); nullptr
  // removes it. Not owned.
  void set_packet_filter(HostPacketFilter* filter) { filter_ = filter; }

  // Registers this host's IP/ICMP counters ("host.*"), its NIC's generic
  // frame counters ("nic.*"), and the TCP stack's "tcp.*" metrics under the
  // given label set (conventionally "host=<name>").
  void register_metrics(telemetry::MetricRegistry& registry,
                        const std::string& labels) const;

  // --- ICMP echo (ping) ---
  // Sends an echo request; the reply (if any) is delivered to the handler
  // registered below. Returns false if the destination is unresolvable.
  bool send_echo_request(net::Ipv4Address dst, std::uint16_t id, std::uint16_t seq,
                         std::size_t payload_bytes = 56);
  using EchoReplyHandler =
      std::function<void(net::Ipv4Address src, std::uint16_t id, std::uint16_t seq)>;
  void set_echo_reply_handler(EchoReplyHandler handler) {
    echo_reply_handler_ = std::move(handler);
  }

  // --- UDP ---
  // Binds a UDP socket; port 0 picks an ephemeral port. Returns a socket
  // owned by the host's UDP layer; close via UdpSocket::close().
  UdpSocket* udp_open(std::uint16_t local_port);

  // --- TCP ---
  // Passive open. The accept callback receives established connections.
  TcpListener* tcp_listen(std::uint16_t port,
                          std::function<void(std::shared_ptr<TcpConnection>)> on_accept);
  // Active open from an ephemeral port.
  std::shared_ptr<TcpConnection> tcp_connect(net::Ipv4Address dst,
                                             std::uint16_t dst_port);

  // --- internals shared with the transport layers ---
  // Build one TCP segment or UDP datagram straight into a pooled frame and
  // send it; return false if the destination is unresolvable.
  bool send_tcp(net::Ipv4Address dst, const net::TcpHeader& header,
                std::span<const std::uint8_t> payload);
  bool send_udp(net::Ipv4Address dst, std::uint16_t src_port, std::uint16_t dst_port,
                std::span<const std::uint8_t> payload);
  std::uint16_t next_ip_id() { return ip_id_++; }
  std::uint64_t next_packet_id() { return packet_id_++; }
  std::uint16_t allocate_ephemeral_port();

  // FrameSink: frames arriving from the NIC.
  void deliver(net::Packet pkt) override;

 private:
  friend class TcpLayer;  // maintains tcp_rst_sent
  void ip_input(net::Packet pkt);
  bool verify_transport_checksum(const net::FrameView& v) const;
  void handle_icmp(const net::FrameView& v);
  void send_icmp_port_unreachable(const net::FrameView& original);
  // This host's endpoints toward `dst`; nullopt when `dst` does not resolve.
  std::optional<net::IpEndpoints> endpoints_to(net::Ipv4Address dst) const;
  // Counts and sends a frame this host built.
  void send_built(net::FrameBufferRef frame);
  void send_frame(net::Packet pkt);

  sim::Simulation& sim_;
  std::string name_;
  net::Ipv4Address ip_;
  std::unique_ptr<Nic> nic_;
  HostConfig config_;
  const AddressDirectory* directory_ = nullptr;
  HostPacketFilter* filter_ = nullptr;

  std::unique_ptr<UdpLayer> udp_;
  std::unique_ptr<TcpLayer> tcp_;

  EchoReplyHandler echo_reply_handler_;
  TokenBucket icmp_error_limiter_;
  std::uint16_t ip_id_ = 1;
  std::uint64_t packet_id_ = 1;
  std::uint16_t next_ephemeral_ = 32768;
  HostStats stats_;
};

}  // namespace barb::stack
