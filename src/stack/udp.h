// UDP sockets.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <unordered_map>

#include "net/frame_view.h"
#include "net/ipv4_address.h"
#include "util/heap_bytes.h"

namespace barb::stack {

class Host;
class UdpLayer;

class UdpSocket {
 public:
  // Callback for received datagrams: (source ip, source port, payload).
  using Receiver =
      std::function<void(net::Ipv4Address, std::uint16_t, std::span<const std::uint8_t>)>;

  std::uint16_t local_port() const { return local_port_; }
  void set_receiver(Receiver receiver) { receiver_ = std::move(receiver); }

  // Sends a datagram; returns false if the destination is unresolvable or
  // the payload exceeds what fits in one MTU (no fragmentation).
  bool send_to(net::Ipv4Address dst, std::uint16_t dst_port,
               std::span<const std::uint8_t> payload);

  // Unbinds and destroys this socket (the pointer is dead afterwards).
  void close();

  std::uint64_t datagrams_received() const { return datagrams_received_; }
  std::uint64_t bytes_received() const { return bytes_received_; }

 private:
  friend class UdpLayer;
  UdpSocket(UdpLayer& layer, std::uint16_t port) : layer_(layer), local_port_(port) {}

  UdpLayer& layer_;
  std::uint16_t local_port_;
  Receiver receiver_;
  std::uint64_t datagrams_received_ = 0;
  std::uint64_t bytes_received_ = 0;
};

class UdpLayer {
 public:
  explicit UdpLayer(Host& host) : host_(host) {}

  // Returns nullptr if the port is taken or no ephemeral port is free.
  UdpSocket* open(std::uint16_t local_port);
  void close(UdpSocket* socket);

  // Returns true if a socket consumed the datagram; false triggers ICMP
  // port-unreachable in the host.
  bool handle_datagram(const net::FrameView& v);

  bool port_in_use(std::uint16_t port) const {
    return sockets_.contains(port);
  }

  // Heap held: the socket table and the sockets in it.
  std::size_t memory_bytes() const {
    return util::heap_bytes(sockets_) + sockets_.size() * sizeof(UdpSocket);
  }

 private:
  friend class UdpSocket;

  Host& host_;
  std::unordered_map<std::uint16_t, std::unique_ptr<UdpSocket>> sockets_;
};

}  // namespace barb::stack
