// Fleet fan-out: one PolicyServer distributing to many agents on a fabric —
// set_policy_all semantics, convergence counters, distribution stats, and
// the opt-in "policy.*" metrics.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/topology.h"
#include "firewall/policy_agent.h"
#include "firewall/policy_server.h"
#include "telemetry/registry.h"

namespace barb::firewall {
namespace {

constexpr int kServerHost = 0;

struct Fleet {
  sim::Simulation sim;
  std::unique_ptr<core::Fabric> fabric;
  std::vector<std::uint8_t> key;
  std::unique_ptr<PolicyServer> server;
  std::vector<net::Ipv4Address> agent_ips;
  std::vector<std::unique_ptr<PolicyAgent>> agents;

  // Hosts 1..num_agents run agents; `raw_hosts` more hosts follow with no
  // agent, for tests that speak the protocol by hand.
  explicit Fleet(int num_agents, int raw_hosts = 0) : sim(1), key(32, 0x5c) {
    core::LeafSpineSpec spec;
    spec.hosts = num_agents + 1 + raw_hosts;  // host 0 = server (plain NIC)
    spec.hosts_per_leaf = 8;
    spec.spines = 2;
    spec.nic_for = [](int index) {
      core::NicSpec nic;
      nic.kind = index == kServerHost ? core::FirewallKind::kNone
                                      : core::FirewallKind::kEfw;
      return nic;
    };
    fabric = core::build_leaf_spine(sim, spec);

    server = std::make_unique<PolicyServer>(fabric->host(kServerHost), key);
    server->start();
    for (int i = 1; i <= num_agents; ++i) {
      agent_ips.push_back(fabric->host(i).ip());
      agents.push_back(std::make_unique<PolicyAgent>(
          fabric->host(i), *fabric->firewall(i),
          fabric->host(kServerHost).ip(), key));
      agents.back()->start_after(sim::Duration::milliseconds(1) +
                                 sim::Duration::microseconds(137) * (i - 1));
    }
  }
};

TEST(PolicyFanout, SetPolicyAllReachesEveryAgent) {
  Fleet fleet(12);
  fleet.server->set_policy_all(fleet.agent_ips,
                               "default deny\nallow tcp from any to any\n");
  fleet.sim.run_for(sim::Duration::seconds(2));

  EXPECT_EQ(fleet.server->count_connected(), 12u);
  EXPECT_EQ(fleet.server->count_acked_at_least(1), 12u);
  for (const auto& agent : fleet.agents) {
    EXPECT_TRUE(agent->connected());
    EXPECT_EQ(agent->stats().policies_applied, 1u);
    EXPECT_EQ(agent->stats().last_version, 1u);
  }
  // Every NIC in the fleet now enforces the pushed rule-set.
  for (int i = 1; i <= 12; ++i) {
    ASSERT_NE(fleet.fabric->firewall(i), nullptr);
    EXPECT_EQ(fleet.fabric->firewall(i)->rule_set().size(), 1u);
  }
}

TEST(PolicyFanout, RePushAdvancesEveryAgentVersion) {
  Fleet fleet(8);
  fleet.server->set_policy_all(fleet.agent_ips, "default allow\n");
  fleet.sim.run_for(sim::Duration::seconds(2));
  ASSERT_EQ(fleet.server->count_acked_at_least(1), 8u);
  EXPECT_EQ(fleet.server->count_acked_at_least(2), 0u);

  // A fleet-wide re-push: every connected session gets a synchronous push.
  // The new policy must keep management TCP open — a bare "default deny"
  // would firewall the agent's own ack path (the paper's self-cutoff).
  const std::size_t pushed = fleet.server->set_policy_all(
      fleet.agent_ips,
      "default deny\nallow tcp from any to any\n"
      "allow udp from any to any port 53\n");
  EXPECT_EQ(pushed, 8u);
  fleet.sim.run_for(sim::Duration::seconds(2));
  EXPECT_EQ(fleet.server->count_acked_at_least(2), 8u);
  for (const auto& agent : fleet.agents) {
    EXPECT_EQ(agent->stats().policies_applied, 2u);
  }
}

TEST(PolicyFanout, ConvergenceCounterIsMonotonicPerVersion) {
  Fleet fleet(8);
  fleet.server->set_policy_all(fleet.agent_ips, "default allow\n");
  // count_acked_at_least(v) must never exceed the count for v-1.
  std::size_t last_v1 = 0;
  fleet.sim.schedule_every(sim::Duration::milliseconds(10), [&] {
    const auto v1 = fleet.server->count_acked_at_least(1);
    ASSERT_GE(v1, last_v1);  // monotonic while pushes only move forward
    ASSERT_LE(fleet.server->count_acked_at_least(2), v1);
    last_v1 = v1;
  });
  fleet.sim.run_until(sim::TimePoint::origin() + sim::Duration::seconds(2));
  EXPECT_EQ(last_v1, 8u);
}

TEST(PolicyFanout, DistributionStatsAccumulate) {
  Fleet fleet(6);
  fleet.server->set_policy_all(fleet.agent_ips, "default allow\n");
  fleet.sim.run_for(sim::Duration::seconds(5));

  const PolicyServerStats& stats = fleet.server->stats();
  EXPECT_EQ(stats.hellos, 6u);
  EXPECT_EQ(stats.pushes, 6u);  // one push per enrollment
  EXPECT_GT(stats.push_bytes, 0u);
  EXPECT_EQ(stats.acks, 6u);
  // ~4 heartbeat intervals elapsed for each of the 6 agents.
  EXPECT_GE(stats.heartbeats, 6u * 3u);
  EXPECT_EQ(stats.corrupted_streams, 0u);

  fleet.server->set_policy_all(fleet.agent_ips,
                               "default deny\nallow tcp from any to any\n");
  fleet.sim.run_for(sim::Duration::seconds(1));
  EXPECT_EQ(fleet.server->stats().pushes, 12u);
  EXPECT_EQ(fleet.server->stats().acks, 12u);
}

TEST(PolicyFanout, MetricsExposeDistributionState) {
  Fleet fleet(5);
  telemetry::MetricRegistry registry;
  fleet.server->register_metrics(registry, "host=server");
  EXPECT_EQ(registry.value("policy.connected", "host=server"), 0.0);

  fleet.server->set_policy_all(fleet.agent_ips, "default allow\n");
  fleet.sim.run_for(sim::Duration::seconds(2));

  EXPECT_EQ(registry.value("policy.connected", "host=server"), 5.0);
  EXPECT_EQ(registry.value("policy.pushes", "host=server"), 5.0);
  EXPECT_EQ(registry.value("policy.acks", "host=server"), 5.0);
  EXPECT_GT(registry.value("policy.push_bytes", "host=server"), 0.0);
}

TEST(PolicyFanout, StaggeredStartDelaysFirstConnect) {
  Fleet fleet(3);
  // start_after was used with 1ms base stagger: nobody connects at t=0.
  EXPECT_EQ(fleet.server->count_connected(), 0u);
  fleet.sim.run_for(sim::Duration::microseconds(500));
  EXPECT_EQ(fleet.server->count_connected(), 0u);
  fleet.sim.run_for(sim::Duration::seconds(1));
  EXPECT_EQ(fleet.server->count_connected(), 3u);
}

// A client holding the deployment key can still send garbage acks: the
// server must count only a well-formed ack for a version it pushed.
TEST(PolicyFanout, MalformedAcksAreIgnored) {
  Fleet fleet(1, /*raw_hosts=*/1);
  stack::Host& raw = fleet.fabric->host(2);
  fleet.server->set_policy(raw.ip(), "default allow\n");  // pushed at hello
  ASSERT_EQ(fleet.server->policy_version(raw.ip()), 1u);

  std::uint64_t seq = 1;
  auto conn = raw.tcp_connect(fleet.fabric->host(kServerHost).ip(),
                              PolicyServer::kDefaultPort);
  auto send = [&](PolicyMsgType type, std::string body) {
    PolicyMessage msg;
    msg.type = type;
    msg.seq = seq++;
    msg.body = std::move(body);
    conn->send(encode_policy_message(msg, fleet.key));
  };
  conn->on_connected = [&] { send(PolicyMsgType::kHello, "host " + raw.ip().to_string()); };
  fleet.sim.run_for(sim::Duration::milliseconds(200));
  const auto status = [&] { return fleet.server->agents().at(raw.ip()); };
  ASSERT_TRUE(status().connected);
  ASSERT_EQ(status().pushed_version, 1u);
  const std::uint64_t acks_before = fleet.server->stats().acks;

  for (const char* bad : {"version -1", "version 1junk", "version 2", "version ",
                          "version 18446744073709551616", "ver 1"}) {
    SCOPED_TRACE(bad);
    send(PolicyMsgType::kAck, bad);
    fleet.sim.run_for(sim::Duration::milliseconds(50));
    EXPECT_EQ(status().acked_version, 0u);
    EXPECT_EQ(fleet.server->stats().acks, acks_before);
  }
  // With "version -1" accepted as 2^64-1 this would count the raw host as
  // having acked every version.
  EXPECT_EQ(fleet.server->count_acked_at_least(1), 0u);

  send(PolicyMsgType::kAck, "version 1");
  fleet.sim.run_for(sim::Duration::milliseconds(50));
  EXPECT_EQ(status().acked_version, 1u);
  EXPECT_EQ(fleet.server->stats().acks, acks_before + 1);
  EXPECT_EQ(fleet.server->count_acked_at_least(1), 1u);
  EXPECT_EQ(fleet.server->count_acked_at_least(2), 0u);
  conn->reset_callbacks();
}

}  // namespace
}  // namespace barb::firewall
