// Heap allocations on the per-frame path, counted.
//
// This binary replaces the global operator new with a counting one, so it
// runs in a binary of its own (like core_memory_audit_test). With a warm
// pool, building a frame, sending a UDP datagram and answering a segment to
// a closed port with an RST allocate nothing, apart from the one
// ParsedHeaders cache entry each received frame gets on its first parse.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "net/icmp.h"
#include "net/packet_builder.h"
#include "stack/host.h"
#include "stack/nic.h"
#include "stack/udp.h"
#include "testutil/fixtures.h"

namespace {

std::uint64_t g_allocations = 0;

void* counted_alloc(std::size_t size) {
  ++g_allocations;
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace barb::stack {
namespace {

constexpr int kFrames = 1000;

net::IpEndpoints endpoints() {
  net::IpEndpoints ep;
  ep.src_ip = net::Ipv4Address(10, 0, 0, 1);
  ep.dst_ip = net::Ipv4Address(10, 0, 0, 2);
  ep.src_mac = net::MacAddress::from_host_id(1);
  ep.dst_mac = net::MacAddress::from_host_id(2);
  return ep;
}

// Builds (and drops) one frame of each shape the loop below builds.
void build_each(net::BufferPool& pool, const std::vector<std::uint8_t>& payload) {
  const auto ep = endpoints();
  net::TcpHeader syn;
  syn.flags = net::TcpFlags::kSyn;
  syn.mss = 1460;
  net::TcpHeader ack;
  ack.flags = net::TcpFlags::kAck;
  for (const std::size_t n : {std::size_t{0}, payload.size()}) {
    const auto bytes = std::span(payload).first(n);
    (void)net::build_tcp_frame_pooled(pool, ep, syn, {}, 1);
    (void)net::build_tcp_frame_pooled(pool, ep, ack, bytes, 2);
    (void)net::build_udp_frame_pooled(pool, ep, 1000, 2000, bytes, 3);
    (void)net::build_icmp_frame_pooled(
        pool, ep, static_cast<std::uint8_t>(net::IcmpType::kEchoRequest), 0, 7, bytes, 4);
  }
}

TEST(FrameAlloc, PooledBuildersAllocateNothingOnceWarm) {
  net::BufferPool pool;
  const std::vector<std::uint8_t> payload(1400, 0x5a);
  build_each(pool, payload);  // warm: one buffer per size class in use

  const std::uint64_t pool_allocations = pool.stats().allocations();
  const std::uint64_t before = g_allocations;
  for (int i = 0; i < kFrames; ++i) build_each(pool, payload);
  const std::uint64_t allocations = g_allocations - before;

  EXPECT_EQ(allocations, 0u);
  EXPECT_EQ(pool.stats().allocations(), pool_allocations);  // every build recycled
}

// The two ends of these tests' traffic: 10.0.0.1 (host id 1) and 10.0.0.2
// (host id 2).
AddressDirectory two_addresses() {
  AddressDirectory directory;
  directory.add(net::Ipv4Address(10, 0, 0, 1), net::MacAddress::from_host_id(1));
  directory.add(net::Ipv4Address(10, 0, 0, 2), net::MacAddress::from_host_id(2));
  directory.freeze();
  return directory;
}

// A host whose NIC is attached to no link: a sent frame is built, handed to
// the NIC and dropped there (tx_dropped), so only the host's own send path
// is counted.
std::unique_ptr<Host> detached_host(sim::Simulation& sim,
                                    const AddressDirectory& directory) {
  auto host = testutil::make_host(sim, "h", 1, net::Ipv4Address(10, 0, 0, 1));
  host->set_directory(&directory);
  return host;
}

TEST(FrameAlloc, UdpSendToAllocatesNothing) {
  sim::Simulation sim(1);
  const AddressDirectory directory = two_addresses();
  auto host = detached_host(sim, directory);
  UdpSocket* sock = host->udp_open(1000);
  ASSERT_NE(sock, nullptr);
  const std::vector<std::uint8_t> payload(512, 0x42);
  ASSERT_TRUE(sock->send_to(net::Ipv4Address(10, 0, 0, 2), 2000, payload));  // warm

  const std::uint64_t before = g_allocations;
  for (int i = 0; i < kFrames; ++i) {
    sock->send_to(net::Ipv4Address(10, 0, 0, 2), 2000, payload);
  }
  const std::uint64_t allocations = g_allocations - before;

  EXPECT_EQ(allocations, 0u);
  EXPECT_EQ(host->nic().stats().tx_dropped, static_cast<std::uint64_t>(kFrames) + 1);
  EXPECT_EQ(host->stats().ip_tx, static_cast<std::uint64_t>(kFrames) + 1);
}

TEST(FrameAlloc, ClosedPortRstAllocatesOnlyTheParseCache) {
  sim::Simulation sim(1);
  const AddressDirectory directory = two_addresses();
  auto target = testutil::make_host(sim, "target", 2, net::Ipv4Address(10, 0, 0, 2));
  target->set_directory(&directory);
  auto& pool = net::BufferPool::instance();

  // A data segment to a port nobody listens on; each one draws an RST.
  auto segment = [&](std::uint32_t seq) {
    net::TcpHeader h;
    h.src_port = 40000;
    h.dst_port = 9;
    h.seq = seq;
    h.ack = 1;
    h.flags = net::TcpFlags::kAck;
    const std::uint8_t data[6] = {1, 2, 3, 4, 5, 6};
    return net::Packet{net::build_tcp_frame_pooled(pool, endpoints(), h, data, 1),
                       sim.now(), seq};
  };
  target->nic().deliver(segment(0));  // warm
  ASSERT_EQ(target->stats().tcp_rst_sent, 1u);
  const std::uint64_t parses_before = pool.stats().parses;

  // Build each segment, deliver it, and let the host answer it.
  const std::uint64_t before = g_allocations;
  for (int i = 1; i <= kFrames; ++i) {
    target->nic().deliver(segment(static_cast<std::uint32_t>(i)));
  }
  const std::uint64_t allocations = g_allocations - before;

  EXPECT_EQ(target->stats().tcp_rst_sent, static_cast<std::uint64_t>(kFrames) + 1);
  EXPECT_EQ(pool.stats().parses - parses_before, static_cast<std::uint64_t>(kFrames));
  // One ParsedHeaders per received frame; nothing for building the segment
  // or the RST.
  EXPECT_EQ(allocations, static_cast<std::uint64_t>(kFrames));
}

}  // namespace
}  // namespace barb::stack
