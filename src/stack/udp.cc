#include "stack/udp.h"

#include "net/udp.h"
#include "stack/host.h"

namespace barb::stack {

bool UdpSocket::send_to(net::Ipv4Address dst, std::uint16_t dst_port,
                        std::span<const std::uint8_t> payload) {
  if (net::UdpHeader::kSize + payload.size() + net::Ipv4Header::kSize >
      net::kEthernetMtu) {
    return false;
  }
  return layer_.host_.send_udp(dst, local_port_, dst_port, payload);
}

void UdpSocket::close() { layer_.close(this); }

UdpSocket* UdpLayer::open(std::uint16_t local_port) {
  if (local_port == 0) {
    local_port = host_.allocate_ephemeral_port();
    if (local_port == 0) return nullptr;
  }
  if (sockets_.contains(local_port)) return nullptr;
  auto socket = std::unique_ptr<UdpSocket>(new UdpSocket(*this, local_port));
  UdpSocket* raw = socket.get();
  sockets_.emplace(local_port, std::move(socket));
  return raw;
}

void UdpLayer::close(UdpSocket* socket) {
  if (socket == nullptr) return;
  sockets_.erase(socket->local_port());
}

bool UdpLayer::handle_datagram(const net::FrameView& v) {
  auto it = sockets_.find(v.udp->dst_port);
  if (it == sockets_.end()) return false;
  UdpSocket& socket = *it->second;
  ++socket.datagrams_received_;
  socket.bytes_received_ += v.l4_payload.size();
  if (socket.receiver_) {
    socket.receiver_(v.ip->src, v.udp->src_port, v.l4_payload);
  }
  return true;
}

}  // namespace barb::stack
