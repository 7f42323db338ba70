// Multi-member VPGs: a group of three ADF-protected hosts sharing one key,
// provisioned through the policy server (VPGs are groups, not just pairs).
#include <gtest/gtest.h>

#include "firewall/nic_firewall.h"
#include "firewall/policy_agent.h"
#include "firewall/policy_server.h"
#include "link/switch.h"
#include "stack/udp.h"

namespace barb::firewall {
namespace {

const std::vector<std::uint8_t> kKey(32, 0x5c);

struct GroupMember {
  std::unique_ptr<stack::Host> host;
  FirewallNic* nic = nullptr;
  std::unique_ptr<PolicyAgent> agent;
};

struct GroupFixture {
  sim::Simulation sim{31};
  link::Switch sw{sim, "sw"};
  std::vector<std::unique_ptr<link::Link>> links;
  stack::AddressDirectory directory;
  std::unique_ptr<stack::Host> policy_host;
  std::unique_ptr<PolicyServer> server;
  std::vector<GroupMember> members;

  GroupFixture() {
    auto attach = [this](stack::Host& host) {
      links.push_back(std::make_unique<link::Link>(sim));
      host.nic().attach(links.back()->a());
      sw.attach(links.back()->b());
    };

    policy_host = std::make_unique<stack::Host>(
        sim, "policy", net::Ipv4Address(10, 0, 1, 10),
        std::make_unique<stack::StandardNic>(sim, net::MacAddress::from_host_id(10),
                                             "policy/nic"));
    attach(*policy_host);
    server = std::make_unique<PolicyServer>(*policy_host, kKey);
    server->start();

    stack::HostConfig vpg_cfg;
    vpg_cfg.mss = 1460 - 32;
    for (int i = 0; i < 3; ++i) {
      GroupMember m;
      const auto id = static_cast<std::uint32_t>(30 + i);
      auto nic = std::make_unique<FirewallNic>(sim, net::MacAddress::from_host_id(id),
                                               "adf" + std::to_string(i),
                                               adf_profile());
      m.nic = nic.get();
      m.nic->set_management_peer(policy_host->ip());
      m.host = std::make_unique<stack::Host>(
          sim, "m" + std::to_string(i),
          net::Ipv4Address(10, 0, 1, static_cast<std::uint8_t>(30 + i)),
          std::move(nic), vpg_cfg);
      attach(*m.host);
      members.push_back(std::move(m));
    }

    // Every host resolves every other through one directory.
    std::vector<stack::Host*> all{policy_host.get()};
    for (auto& m : members) all.push_back(m.host.get());
    for (auto* h : all) directory.add(h->ip(), h->mac());
    directory.freeze();
    for (auto* h : all) h->set_directory(&directory);

    // One group policy for every member: tunnel all intra-subnet traffic.
    std::vector<net::Ipv4Address> ips;
    for (auto& m : members) {
      ips.push_back(m.host->ip());
      server->set_policy(m.host->ip(),
                         "default deny\n"
                         "vpg 9 between 10.0.1.0/24 and 10.0.1.0/24\n");
      m.agent = std::make_unique<PolicyAgent>(*m.host, *m.nic, policy_host->ip(), kKey);
      m.agent->start();
    }
    server->create_vpg(9, ips);
    sim.run_for(sim::Duration::milliseconds(500));
  }
};

TEST(VpgGroup, AllMembersReceiveTheGroupKey) {
  GroupFixture f;
  for (auto& m : f.members) {
    EXPECT_TRUE(m.nic->vpg_table().has(9)) << m.host->name();
  }
}

TEST(VpgGroup, EveryPairCommunicatesThroughTheTunnel) {
  GroupFixture f;

  // Every member echoes on UDP 7.
  for (auto& m : f.members) {
    auto* echo = m.host->udp_open(7);
    echo->set_receiver([echo](net::Ipv4Address src, std::uint16_t port,
                              std::span<const std::uint8_t> data) {
      std::vector<std::uint8_t> reply(data.begin(), data.end());
      echo->send_to(src, port, reply);
    });
  }

  int replies = 0;
  std::vector<stack::UdpSocket*> sockets;
  for (std::size_t i = 0; i < f.members.size(); ++i) {
    auto* sock = f.members[i].host->udp_open(0);
    sock->set_receiver([&replies](net::Ipv4Address, std::uint16_t,
                                  std::span<const std::uint8_t>) { ++replies; });
    sockets.push_back(sock);
    for (std::size_t j = 0; j < f.members.size(); ++j) {
      if (i == j) continue;
      const std::vector<std::uint8_t> ping{static_cast<std::uint8_t>(i),
                                           static_cast<std::uint8_t>(j)};
      EXPECT_TRUE(sockets[i]->send_to(f.members[j].host->ip(), 7, ping));
    }
  }
  f.sim.run_for(sim::Duration::seconds(1));

  EXPECT_EQ(replies, 6);  // 3 members x 2 peers each
  for (auto& m : f.members) {
    EXPECT_GT(m.nic->vpg_table().stats().encapsulated, 0u) << m.host->name();
    EXPECT_GT(m.nic->vpg_table().stats().decapsulated, 0u) << m.host->name();
  }
}

TEST(VpgGroup, NonMemberCannotJoinTheConversation) {
  GroupFixture f;
  // A fourth host with no ADF (and no key) on the same switch.
  auto outsider = std::make_unique<stack::Host>(
      f.sim, "outsider", net::Ipv4Address(10, 0, 1, 99),
      std::make_unique<stack::StandardNic>(f.sim, net::MacAddress::from_host_id(99),
                                           "outsider/nic"));
  f.links.push_back(std::make_unique<link::Link>(f.sim));
  outsider->nic().attach(f.links.back()->a());
  f.sw.attach(f.links.back()->b());
  // The outsider knows the member's address; the members do not know its.
  stack::AddressDirectory outsider_view;
  outsider_view.add(f.members[0].host->ip(), f.members[0].host->mac());
  outsider_view.freeze();
  outsider->set_directory(&outsider_view);

  int received = 0;
  auto* listener = f.members[0].host->udp_open(7);
  listener->set_receiver([&received](net::Ipv4Address, std::uint16_t,
                                     std::span<const std::uint8_t>) { ++received; });

  // The outsider's cleartext datagram matches the VPG selectors at the
  // member's ADF and dies there (it is not tunneled).
  auto* sock = outsider->udp_open(0);
  const std::vector<std::uint8_t> probe{1, 2, 3};
  sock->send_to(f.members[0].host->ip(), 7, probe);
  f.sim.run_for(sim::Duration::milliseconds(200));

  EXPECT_EQ(received, 0);
  EXPECT_GT(f.members[0].nic->fw_stats().vpg_drops, 0u);
}

TEST(VpgGroup, RekeyingTheGroupKeepsItWorking) {
  GroupFixture f;
  std::vector<net::Ipv4Address> ips;
  for (auto& m : f.members) ips.push_back(m.host->ip());
  f.server->create_vpg(9, ips);  // fresh key for everyone
  f.sim.run_for(sim::Duration::milliseconds(500));

  int received = 0;
  auto* listener = f.members[1].host->udp_open(7);
  listener->set_receiver([&received](net::Ipv4Address, std::uint16_t,
                                     std::span<const std::uint8_t>) { ++received; });
  auto* sock = f.members[0].host->udp_open(0);
  const std::vector<std::uint8_t> data{9};
  sock->send_to(f.members[1].host->ip(), 7, data);
  f.sim.run_for(sim::Duration::milliseconds(200));
  EXPECT_EQ(received, 1);
}

}  // namespace
}  // namespace barb::firewall
