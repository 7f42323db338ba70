// The shared AddressDirectory: lookups after freeze, a host resolving only
// through the directory it is handed, and the footprint against a full-mesh
// ARP map.
#include "stack/address_directory.h"

#include <gtest/gtest.h>

#include <unordered_map>
#include <vector>

#include "stack/udp.h"
#include "testutil/fixtures.h"
#include "util/heap_bytes.h"

namespace barb::stack {
namespace {

using net::Ipv4Address;
using net::MacAddress;

TEST(AddressDirectory, LookupAfterFreeze) {
  AddressDirectory dir;
  for (int i = 1; i <= 100; ++i) {
    dir.add(Ipv4Address(10, 0, 0, static_cast<std::uint8_t>(i)),
            MacAddress::from_host_id(static_cast<std::uint32_t>(i)));
  }
  dir.freeze();
  EXPECT_EQ(dir.size(), 100u);
  for (int i = 1; i <= 100; ++i) {
    const auto mac = dir.lookup(Ipv4Address(10, 0, 0, static_cast<std::uint8_t>(i)));
    ASSERT_TRUE(mac.has_value());
    EXPECT_EQ(*mac, MacAddress::from_host_id(static_cast<std::uint32_t>(i)));
  }
  EXPECT_FALSE(dir.lookup(Ipv4Address(10, 0, 0, 200)).has_value());
}

// A host resolves through the directory it is handed and nothing else:
// without one it resolves no address, its own included, and sends nothing.
TEST(AddressDirectory, HostWithoutDirectorySendsNothing) {
  sim::Simulation sim(1);
  testutil::TwoHosts net(sim);
  auto lone = testutil::make_host(sim, "lone", 3, Ipv4Address(10, 0, 0, 3));
  EXPECT_EQ(lone->directory(), nullptr);
  EXPECT_FALSE(lone->resolve(lone->ip()).has_value());
  EXPECT_FALSE(lone->resolve(net.a->ip()).has_value());

  const std::vector<std::uint8_t> payload(8, 1);
  UdpSocket* sock = lone->udp_open(0);
  ASSERT_NE(sock, nullptr);
  EXPECT_FALSE(sock->send_to(net.a->ip(), 7, payload));
  EXPECT_FALSE(lone->send_echo_request(net.a->ip(), 1, 1));
  const auto conn = lone->tcp_connect(net.a->ip(), 80);  // SYN and its retries
  sim.run_for(sim::Duration::seconds(5));
  EXPECT_EQ(lone->stats().ip_tx, 0u);
  EXPECT_EQ(lone->nic().stats().tx_requested, 0u);

  // A host with a directory resolves every binding in it, its own included.
  EXPECT_EQ(net.a->directory(), &net.directory);
  EXPECT_EQ(net.a->resolve(net.a->ip()), net.a->mac());
  EXPECT_EQ(net.a->resolve(net.b->ip()), net.b->mac());
  EXPECT_FALSE(net.a->resolve(lone->ip()).has_value());
}

TEST(AddressDirectory, SharedDirectoryBeatsFullMeshFootprint) {
  constexpr int kHosts = 256;
  AddressDirectory dir;
  for (int i = 0; i < kHosts; ++i) {
    dir.add(Ipv4Address(10, 0, 1, static_cast<std::uint8_t>(i)),
            MacAddress::from_host_id(static_cast<std::uint32_t>(i) + 1));
  }
  dir.freeze();

  // One host's share of the directory vs. one full-mesh per-host map of the
  // N-1 other bindings.
  std::unordered_map<Ipv4Address, MacAddress> fullmesh;
  for (int i = 0; i < kHosts - 1; ++i) {
    fullmesh[Ipv4Address(10, 0, 1, static_cast<std::uint8_t>(i))] =
        MacAddress::from_host_id(static_cast<std::uint32_t>(i) + 1);
  }
  EXPECT_LT(dir.memory_bytes() / kHosts, util::heap_bytes(fullmesh) / 4);
}

}  // namespace
}  // namespace barb::stack
