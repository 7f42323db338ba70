// Fleet fan-out: one PolicyServer distributing to many agents on a fabric —
// set_policy_all semantics, convergence counters, distribution stats, and
// the opt-in "policy.*" metrics.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/topology.h"
#include "firewall/policy_agent.h"
#include "firewall/policy_server.h"
#include "stack/tcp.h"
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

// `rules` rules, about 53 bytes each: the management-plane allow first, so
// an agent's acks still reach the server once the policy is installed, then
// distinct UDP denies.
std::string sized_policy(int rules, net::Ipv4Address server) {
  std::string text = "default deny\nallow tcp from any to " + server.to_string() + " port " +
                     std::to_string(PolicyServer::kDefaultPort) + "\n";
  for (int i = 1; i < rules; ++i) {
    text += "deny udp from 10.1." + std::to_string(i / 250) + "." +
            std::to_string(i % 250 + 1) + " to 172.16.0.0/12 port " +
            std::to_string(1024 + i) + "\n";
  }
  return text;
}

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

// A policy message larger than the server's free TCP send buffer (256 KiB)
// goes out in pieces as the connection drains; none of it is dropped.
TEST(PolicyFanout, PolicyLargerThanSendBufferArrives) {
  Fleet fleet(1);
  fleet.sim.run_for(sim::Duration::milliseconds(100));
  ASSERT_EQ(fleet.server->count_connected(), 1u);

  const std::string text = sized_policy(6000, fleet.fabric->host(kServerHost).ip());
  fleet.server->set_policy_all(fleet.agent_ips, text);
  EXPECT_GT(fleet.server->stats().push_bytes, stack::kTcpSendBufferBytes);
  fleet.sim.run_for(sim::Duration::seconds(2));

  EXPECT_EQ(fleet.server->count_acked_at_least(1), 1u);
  EXPECT_EQ(fleet.agents[0]->stats().policies_applied, 1u);
  EXPECT_EQ(fleet.agents[0]->stats().policy_errors, 0u);
  EXPECT_EQ(fleet.agents[0]->stats().reconnects, 0u);
  EXPECT_EQ(fleet.server->stats().corrupted_streams, 0u);
  EXPECT_EQ(fleet.fabric->firewall(1)->rule_set().size(), 6000u);
}

// One host enrolls twice; the second hello adopts the newer session.
// Closing the stale one must leave the live one connected and pushable.
// A second hello from the same agent replaces its session: the server
// closes the stale connection at both ends and keeps the live one.
TEST(PolicyFanout, ClosingStaleSessionKeepsLiveOne) {
  const std::int64_t connections_before = stack::TcpConnection::live_instances();
  Fleet fleet(0, /*raw_hosts=*/1);
  stack::Host& raw = fleet.fabric->host(1);
  const net::Ipv4Address server_ip = fleet.fabric->host(kServerHost).ip();
  std::uint64_t seq = 1;
  auto hello_on = [&](const std::shared_ptr<stack::TcpConnection>& conn) {
    conn->on_connected = [&, c = conn.get()] {
      PolicyMessage msg;
      msg.type = PolicyMsgType::kHello;
      msg.seq = seq++;
      msg.body = "host " + raw.ip().to_string();
      c->send(encode_policy_message(msg, fleet.key));
    };
  };
  auto stale = raw.tcp_connect(server_ip, PolicyServer::kDefaultPort);
  hello_on(stale);
  fleet.sim.run_for(sim::Duration::milliseconds(100));
  ASSERT_EQ(fleet.server->count_connected(), 1u);
  const std::size_t one_session = fleet.server->memory_bytes();

  auto live = raw.tcp_connect(server_ip, PolicyServer::kDefaultPort);
  hello_on(live);
  PolicyMessageReader reader;
  std::vector<PolicyMessage> received;
  live->on_data = [&](std::span<const std::uint8_t> data) {
    reader.append(data);
    while (auto msg = reader.next(fleet.key)) received.push_back(*msg);
  };
  fleet.sim.run_for(sim::Duration::milliseconds(100));
  ASSERT_EQ(fleet.server->stats().hellos, 2u);
  EXPECT_EQ(fleet.server->count_connected(), 1u);
  EXPECT_EQ(fleet.server->memory_bytes(), one_session);
  // The server reset the stale connection: closed here, and gone there, so
  // only the two ends of the live one remain.
  EXPECT_EQ(stale->state(), stack::TcpState::kClosed);
  ASSERT_EQ(live->state(), stack::TcpState::kEstablished);
  stale.reset();
  EXPECT_EQ(stack::TcpConnection::live_instances(), connections_before + 2);

  fleet.server->set_policy(raw.ip(), "default allow\n");
  EXPECT_EQ(fleet.server->stats().pushes, 1u);
  fleet.sim.run_for(sim::Duration::milliseconds(100));
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received[0].type, PolicyMsgType::kPolicyUpdate);
  EXPECT_EQ(received[0].body, "version 1\ndefault allow\n");
  live->reset_callbacks();
}

// The VPG key lines come before the policy text; an agent installs both.
TEST(PolicyFanout, PushWithVpgKeysInstallsRulesAndKeys) {
  Fleet fleet(2);
  const std::string text = "default deny\nallow tcp from any to any\nvpg 7 between " +
                           fleet.agent_ips[0].to_string() + " and " +
                           fleet.agent_ips[1].to_string() + "\n";
  fleet.server->set_policy_all(fleet.agent_ips, text);
  fleet.server->create_vpg(7, fleet.agent_ips[0], fleet.agent_ips[1]);
  fleet.sim.run_for(sim::Duration::seconds(2));
  ASSERT_EQ(fleet.server->count_acked_at_least(2), 2u);
  for (int i = 1; i <= 2; ++i) {
    EXPECT_EQ(fleet.agents[static_cast<std::size_t>(i - 1)]->stats().policy_errors, 0u);
    EXPECT_EQ(fleet.fabric->firewall(i)->rule_set().size(), 2u);
    EXPECT_TRUE(fleet.fabric->firewall(i)->vpg_table().has(7));
  }
}

// A policy server stand-in on host 1 pushes one hand-written body to an
// agent on host 2, and collects the agent's acks.
struct ScriptedPush {
  Fleet fleet{0, /*raw_hosts=*/2};
  std::shared_ptr<stack::TcpConnection> conn;
  PolicyMessageReader reader;
  std::size_t acks = 0;
  std::unique_ptr<PolicyAgent> agent;

  explicit ScriptedPush(const std::string& body) {
    stack::Host& server = fleet.fabric->host(1);
    server.tcp_listen(PolicyServer::kDefaultPort,
                      [this, body](std::shared_ptr<stack::TcpConnection> c) {
                        conn = c;
                        conn->on_data = [this](std::span<const std::uint8_t> data) {
                          reader.append(data);
                          while (auto msg = reader.next(fleet.key)) {
                            acks += msg->type == PolicyMsgType::kAck ? 1 : 0;
                          }
                        };
                        conn->send(encode_policy_message(
                            PolicyMessage{PolicyMsgType::kPolicyUpdate, 1, body}, fleet.key));
                      });
    agent = std::make_unique<PolicyAgent>(fleet.fabric->host(2), *fleet.fabric->firewall(2),
                                          server.ip(), fleet.key);
    agent->start();
    fleet.sim.run_for(sim::Duration::milliseconds(200));
  }
  ~ScriptedPush() {
    if (conn) conn->reset_callbacks();
  }
};

TEST(PolicyFanout, MalformedVpgKeyHeaderIsRefused) {
  ScriptedPush push("version 1\nvpgkey 7 abcd\ndefault deny\nallow tcp from any to any\n");
  EXPECT_EQ(push.agent->stats().policy_errors, 1u);
  EXPECT_EQ(push.agent->stats().policies_applied, 0u);
  EXPECT_EQ(push.acks, 0u);
  EXPECT_EQ(push.fleet.fabric->firewall(2)->rule_set().size(), 0u);
  EXPECT_FALSE(push.fleet.fabric->firewall(2)->vpg_table().has(7));
}

// Only the body's first line carries the version; one inside the policy text
// is a parse error, not an override.
TEST(PolicyFanout, VersionLineInsideTheTextIsRefused) {
  ScriptedPush push("version 1\ndefault deny\nversion 9\nallow tcp from any to any\n");
  EXPECT_EQ(push.agent->stats().policy_errors, 1u);
  EXPECT_EQ(push.agent->stats().policies_applied, 0u);
  EXPECT_EQ(push.agent->stats().last_version, 0u);
  EXPECT_EQ(push.acks, 0u);
  EXPECT_EQ(push.fleet.fabric->firewall(2)->rule_set().size(), 0u);
}

// A fleet push keeps one copy of the text at the server, and an agent that
// has consumed its message keeps no receive buffer.
TEST(PolicyFanout, ServerHoldsOneTextAndDrainedReadersHoldNoBuffer) {
  Fleet fleet(8);
  const std::string text = sized_policy(1000, fleet.fabric->host(kServerHost).ip());
  fleet.server->set_policy_all(fleet.agent_ips, text);
  fleet.sim.run_for(sim::Duration::seconds(3));
  ASSERT_EQ(fleet.server->count_acked_at_least(1), 8u);

  const std::size_t server_bytes = fleet.server->memory_bytes();
  EXPECT_GT(server_bytes, text.size());
  EXPECT_LT(server_bytes, 2 * text.size());
  for (const auto& agent : fleet.agents) {
    EXPECT_EQ(agent->stats().policies_applied, 1u);
    EXPECT_EQ(agent->memory_bytes(), fleet.key.size());
  }
}

}  // namespace
}  // namespace barb::firewall
