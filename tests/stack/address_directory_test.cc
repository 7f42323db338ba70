// The shared AddressDirectory: lookups after freeze, the ArpTable fallback
// and its overrides, and the footprint against a full-mesh ARP table.
#include "stack/address_directory.h"

#include <gtest/gtest.h>

#include "stack/arp_table.h"

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

TEST(AddressDirectory, ArpTableFallsBackToDirectoryAndOverrides) {
  AddressDirectory dir;
  dir.add(Ipv4Address(10, 0, 0, 1), MacAddress::from_host_id(1));
  dir.add(Ipv4Address(10, 0, 0, 2), MacAddress::from_host_id(2));
  dir.freeze();

  ArpTable arp;
  arp.set_directory(&dir);
  auto mac = arp.lookup(Ipv4Address(10, 0, 0, 2));
  ASSERT_TRUE(mac.has_value());
  EXPECT_EQ(*mac, MacAddress::from_host_id(2));

  // Private entries shadow the shared directory.
  arp.add(Ipv4Address(10, 0, 0, 2), MacAddress::from_host_id(42));
  mac = arp.lookup(Ipv4Address(10, 0, 0, 2));
  ASSERT_TRUE(mac.has_value());
  EXPECT_EQ(*mac, MacAddress::from_host_id(42));

  EXPECT_FALSE(arp.lookup(Ipv4Address(10, 9, 9, 9)).has_value());
}

TEST(AddressDirectory, SharedDirectoryBeatsFullMeshFootprint) {
  constexpr int kHosts = 256;
  AddressDirectory dir;
  for (int i = 0; i < kHosts; ++i) {
    dir.add(Ipv4Address(10, 0, 1, static_cast<std::uint8_t>(i)),
            MacAddress::from_host_id(static_cast<std::uint32_t>(i) + 1));
  }
  dir.freeze();

  // One host's share of the directory vs. one full-mesh private ArpTable.
  ArpTable fullmesh;
  for (int i = 0; i < kHosts - 1; ++i) {
    fullmesh.add(Ipv4Address(10, 0, 1, static_cast<std::uint8_t>(i)),
                 MacAddress::from_host_id(static_cast<std::uint32_t>(i) + 1));
  }
  EXPECT_LT(dir.memory_bytes() / kHosts, fullmesh.memory_bytes() / 4);
}

}  // namespace
}  // namespace barb::stack
