#include "stack/host.h"

#include <algorithm>
#include <array>
#include <utility>
#include <vector>

#include "net/checksum.h"
#include "net/icmp.h"
#include "stack/tcp.h"
#include "stack/udp.h"
#include "util/assert.h"
#include "util/heap_bytes.h"
#include "util/logging.h"

namespace barb::stack {

namespace {

// Linux icmp_ratelimit analogue for destination-unreachable generation.
constexpr double kIcmpErrorsPerSec = 1.0;

}  // namespace

Host::Host(sim::Simulation& sim, std::string name, net::Ipv4Address ip,
           std::unique_ptr<Nic> nic, HostConfig config)
    : sim_(sim),
      name_(std::move(name)),
      ip_(ip),
      nic_(std::move(nic)),
      config_(config),
      icmp_error_limiter_(kIcmpErrorsPerSec, 1.0) {
  BARB_ASSERT(nic_ != nullptr);
  nic_->set_host_sink(this);
  udp_ = std::make_unique<UdpLayer>(*this);
  tcp_ = std::make_unique<TcpLayer>(*this);
}

Host::~Host() = default;

void Host::set_directory(const AddressDirectory* directory) {
  BARB_ASSERT_MSG(directory == nullptr || directory->frozen(),
                  "freeze() the directory before handing it to a host");
  directory_ = directory;
}

void Host::register_metrics(telemetry::MetricRegistry& registry,
                            const std::string& labels) const {
  auto host_counter = [&](const char* name, const std::uint64_t* field) {
    registry.counter_fn(name, labels,
                       [field] { return static_cast<double>(*field); });
  };
  host_counter("host.ip_rx", &stats_.ip_rx);
  host_counter("host.ip_rx_dropped", &stats_.ip_rx_dropped);
  host_counter("host.ip_tx", &stats_.ip_tx);
  host_counter("host.tcp_rst_sent", &stats_.tcp_rst_sent);
  host_counter("host.icmp_unreachable_sent", &stats_.icmp_unreachable_sent);
  host_counter("host.icmp_unreachable_suppressed", &stats_.icmp_unreachable_suppressed);
  host_counter("host.icmp_echo_replies", &stats_.icmp_echo_replies);

  const NicStats& nic = nic_->stats();
  host_counter("nic.rx_frames", &nic.rx_frames);
  host_counter("nic.rx_delivered", &nic.rx_delivered);
  host_counter("nic.rx_dropped", &nic.rx_dropped);
  host_counter("nic.tx_requested", &nic.tx_requested);
  host_counter("nic.tx_sent", &nic.tx_sent);
  host_counter("nic.tx_dropped", &nic.tx_dropped);

  tcp_->register_metrics(registry, labels);
}

UdpSocket* Host::udp_open(std::uint16_t local_port) { return udp_->open(local_port); }

TcpListener* Host::tcp_listen(
    std::uint16_t port, std::function<void(std::shared_ptr<TcpConnection>)> on_accept) {
  return tcp_->listen(port, std::move(on_accept));
}

std::shared_ptr<TcpConnection> Host::tcp_connect(net::Ipv4Address dst,
                                                 std::uint16_t dst_port) {
  return tcp_->connect(dst, dst_port);
}

std::uint16_t Host::allocate_ephemeral_port() {
  for (int attempts = 0; attempts < 28000; ++attempts) {
    const std::uint16_t port = next_ephemeral_;
    next_ephemeral_ = next_ephemeral_ >= 60999 ? 32768 : next_ephemeral_ + 1;
    if (!udp_->port_in_use(port) && !tcp_->port_in_use(port)) return port;
  }
  BARB_WARN("%s: ephemeral port space exhausted", name_.c_str());
  return 0;
}

std::optional<net::IpEndpoints> Host::endpoints_to(net::Ipv4Address dst) const {
  const auto dst_mac = resolve(dst);
  if (!dst_mac) {
    BARB_DEBUG("%s: no address binding for %s", name_.c_str(), dst.to_string().c_str());
    return std::nullopt;
  }
  net::IpEndpoints ep;
  ep.src_ip = ip_;
  ep.dst_ip = dst;
  ep.src_mac = nic_->mac();
  ep.dst_mac = *dst_mac;
  return ep;
}

bool Host::send_tcp(net::Ipv4Address dst, const net::TcpHeader& header,
                    std::span<const std::uint8_t> payload) {
  const auto ep = endpoints_to(dst);
  if (!ep) return false;
  send_built(net::build_tcp_frame_pooled(net::BufferPool::instance(), *ep, header,
                                         payload, next_ip_id()));
  return true;
}

bool Host::send_udp(net::Ipv4Address dst, std::uint16_t src_port, std::uint16_t dst_port,
                    std::span<const std::uint8_t> payload) {
  const auto ep = endpoints_to(dst);
  if (!ep) return false;
  send_built(net::build_udp_frame_pooled(net::BufferPool::instance(), *ep, src_port,
                                         dst_port, payload, next_ip_id()));
  return true;
}

void Host::send_built(net::FrameBufferRef frame) {
  ++stats_.ip_tx;
  send_frame(net::Packet{std::move(frame), sim_.now(), next_packet_id()});
}

void Host::send_frame(net::Packet pkt) {
  if (filter_ != nullptr) {
    filter_->filter(FilterDirection::kOutput, std::move(pkt),
                    [this](net::Packet allowed) { nic_->transmit(std::move(allowed)); });
    return;
  }
  nic_->transmit(std::move(pkt));
}

void Host::deliver(net::Packet pkt) {
  if (filter_ != nullptr) {
    filter_->filter(FilterDirection::kInput, std::move(pkt),
                    [this](net::Packet allowed) { ip_input(std::move(allowed)); });
    return;
  }
  ip_input(std::move(pkt));
}

void Host::ip_input(net::Packet pkt) {
  // Cached parse: by now the switch and the NIC have already looked at this
  // frame, so this is a cache read, not a header walk.
  const net::FrameView* v = pkt.view();
  if (v == nullptr || !v->ip) {
    ++stats_.ip_rx_dropped;
    return;
  }
  if (v->ip->dst != ip_ && v->ip->dst != net::Ipv4Address::broadcast()) {
    ++stats_.ip_rx_dropped;
    return;
  }
  ++stats_.ip_rx;

  if (!verify_transport_checksum(*v)) {
    nic_->count_rx_checksum_drop();
    return;
  }

  if (v->tcp) {
    tcp_->handle_segment(*v);
    return;
  }
  if (v->udp) {
    if (!udp_->handle_datagram(*v)) {
      send_icmp_port_unreachable(*v);
    }
    return;
  }
  if (v->icmp) {
    handle_icmp(*v);
    return;
  }
  // Unknown protocol at the host (e.g. a stray VPG frame the NIC did not
  // decapsulate): drop.
  ++stats_.ip_rx_dropped;
}

// Receive-side checksum verification (what checksum-offload hardware does
// before handing a frame up). The IPv4 header checksum was already verified
// during parse; this covers the transport layer. A UDP checksum of zero
// means "not computed" (RFC 768) and is accepted.
bool Host::verify_transport_checksum(const net::FrameView& v) const {
  if (v.tcp) {
    return net::transport_checksum(v.ip->src, v.ip->dst,
                                   static_cast<std::uint8_t>(net::IpProtocol::kTcp),
                                   v.l3_payload) == 0;
  }
  if (v.udp) {
    if (v.udp->checksum == 0) return true;
    if (v.udp->length > v.l3_payload.size()) return false;
    return net::transport_checksum(v.ip->src, v.ip->dst,
                                   static_cast<std::uint8_t>(net::IpProtocol::kUdp),
                                   v.l3_payload.first(v.udp->length)) == 0;
  }
  if (v.icmp) {
    return net::internet_checksum(v.l3_payload) == 0;
  }
  return true;
}

bool Host::send_echo_request(net::Ipv4Address dst, std::uint16_t id,
                             std::uint16_t seq, std::size_t payload_bytes) {
  const auto ep = endpoints_to(dst);
  if (!ep) return false;
  const std::vector<std::uint8_t> payload(payload_bytes, 0x5a);
  send_built(net::build_icmp_frame_pooled(
      net::BufferPool::instance(), *ep,
      static_cast<std::uint8_t>(net::IcmpType::kEchoRequest), 0,
      static_cast<std::uint32_t>(id) << 16 | seq, payload, next_ip_id()));
  return true;
}

void Host::handle_icmp(const net::FrameView& v) {
  if (v.icmp->type == static_cast<std::uint8_t>(net::IcmpType::kEchoReply)) {
    if (echo_reply_handler_) {
      echo_reply_handler_(v.ip->src, static_cast<std::uint16_t>(v.icmp->rest >> 16),
                          static_cast<std::uint16_t>(v.icmp->rest));
    }
    return;
  }
  if (v.icmp->type == static_cast<std::uint8_t>(net::IcmpType::kEchoRequest)) {
    const auto ep = endpoints_to(v.ip->src);
    if (!ep) return;
    ++stats_.icmp_echo_replies;
    send_built(net::build_icmp_frame_pooled(
        net::BufferPool::instance(), *ep,
        static_cast<std::uint8_t>(net::IcmpType::kEchoReply), 0, v.icmp->rest,
        v.l4_payload, next_ip_id()));
  }
  // Destination-unreachable and echo replies are counted by interested
  // sockets/apps; the base stack drops them silently like a host with no
  // listener would.
}

void Host::send_icmp_port_unreachable(const net::FrameView& original) {
  // Linux rate-limits ICMP errors (icmp_ratelimit); a UDP flood therefore
  // produces almost no response traffic, unlike a TCP flood's RSTs.
  if (!icmp_error_limiter_.try_consume(sim_.now())) {
    ++stats_.icmp_unreachable_suppressed;
    return;
  }
  const auto ep = endpoints_to(original.ip->src);
  if (!ep) return;

  // Quote the original IP header + first 8 payload bytes, per RFC 792.
  constexpr std::size_t kQuotedPayload = 8;
  std::array<std::uint8_t, net::Ipv4Header::kSize + kQuotedPayload> quote;
  original.ip->write(std::span(quote).first<net::Ipv4Header::kSize>());
  const auto head =
      original.l3_payload.first(std::min(kQuotedPayload, original.l3_payload.size()));
  std::copy(head.begin(), head.end(), quote.begin() + net::Ipv4Header::kSize);

  ++stats_.icmp_unreachable_sent;
  send_built(net::build_icmp_frame_pooled(
      net::BufferPool::instance(), *ep,
      static_cast<std::uint8_t>(net::IcmpType::kDestinationUnreachable),
      net::kIcmpCodePortUnreachable, 0,
      std::span(quote).first(net::Ipv4Header::kSize + head.size()), next_ip_id()));
}

std::size_t Host::stack_memory_bytes() const {
  return util::heap_bytes(name_) + sizeof(UdpLayer) + udp_->memory_bytes() +
         sizeof(TcpLayer) + tcp_->memory_bytes();
}

}  // namespace barb::stack
