#include "apps/iperf.h"

#include <gtest/gtest.h>

#include "testutil/fixtures.h"
#include "testutil/tcp_helpers.h"

namespace barb::apps {
namespace {

using testutil::TwoHosts;

TEST(Iperf, TcpMeasuresNearLineRateOnIdleLink) {
  sim::Simulation sim(1);
  TwoHosts net(sim);
  IperfServer server(*net.b);
  server.start();

  IperfClient client(*net.a, net.b->ip());
  IperfResult result;
  client.run(IperfClient::Mode::kTcp, sim::Duration::seconds(2),
             [&](IperfResult r) { result = r; });
  sim.run_for(sim::Duration::seconds(3));

  EXPECT_TRUE(result.completed);
  EXPECT_GT(result.mbps, 88.0);
  EXPECT_LT(result.mbps, 95.2);
  EXPECT_EQ(result.retransmissions, 0u);
  EXPECT_EQ(server.connections_accepted(), 1u);
  EXPECT_GT(server.tcp_bytes_received(), 20'000'000u);
}

TEST(Iperf, TcpAgainstDeadServerReportsZero) {
  sim::Simulation sim(1);
  TwoHosts net(sim);
  // No server started: the target responds with RST.
  IperfClient client(*net.a, net.b->ip());
  IperfResult result;
  bool done = false;
  client.run(IperfClient::Mode::kTcp, sim::Duration::seconds(1), [&](IperfResult r) {
    result = r;
    done = true;
  });
  sim.run_for(sim::Duration::seconds(3));
  EXPECT_TRUE(done);
  EXPECT_EQ(result.bytes, 0u);
  EXPECT_DOUBLE_EQ(result.mbps, 0.0);
}

TEST(Iperf, CancelReportsPartialMeasurement) {
  sim::Simulation sim(1);
  TwoHosts net(sim);
  IperfServer server(*net.b);
  server.start();

  IperfClient client(*net.a, net.b->ip());
  IperfResult result;
  bool done = false;
  client.run(IperfClient::Mode::kTcp, sim::Duration::seconds(100), [&](IperfResult r) {
    result = r;
    done = true;
  });
  sim.run_for(sim::Duration::seconds(1));
  EXPECT_FALSE(done);
  client.cancel();
  sim.run_for(sim::Duration::milliseconds(10));
  EXPECT_TRUE(done);
  EXPECT_TRUE(result.completed);
  EXPECT_GT(result.mbps, 80.0);
}

TEST(Iperf, UdpPacedRateIsMeasuredByServerReport) {
  sim::Simulation sim(1);
  TwoHosts net(sim);
  IperfServer server(*net.b);
  server.start();

  IperfClient client(*net.a, net.b->ip());
  IperfResult result;
  bool done = false;
  client.run(
      IperfClient::Mode::kUdp, sim::Duration::seconds(2),
      [&](IperfResult r) {
        result = r;
        done = true;
      },
      /*udp_rate_bps=*/10e6);
  sim.run_for(sim::Duration::seconds(4));

  ASSERT_TRUE(done);
  EXPECT_TRUE(result.completed);
  // Payload goodput is a bit below the configured gross rate.
  EXPECT_GT(result.mbps, 8.5);
  EXPECT_LT(result.mbps, 10.1);
  EXPECT_GT(server.udp_datagrams_received(), 1000u);
}

TEST(Iperf, UdpReportRetriesSurviveReportLoss) {
  // Even if some datagrams die, repeated report requests eventually land.
  sim::Simulation sim(3);
  link::Link link(sim);
  auto a = testutil::make_host(sim, "a", 1, net::Ipv4Address(10, 0, 0, 1));
  auto lossy = std::make_unique<testutil::LossyNic>(
      sim, net::MacAddress::from_host_id(2), "b/nic", 0.3);
  auto b = std::make_unique<stack::Host>(sim, "b", net::Ipv4Address(10, 0, 0, 2),
                                         std::move(lossy));
  a->nic().attach(link.a());
  b->nic().attach(link.b());
  stack::AddressDirectory directory;
  testutil::share_directory(directory, {a.get(), b.get()});

  IperfServer server(*b);
  server.start();
  IperfClient client(*a, b->ip());
  bool done = false;
  IperfResult result;
  client.run(
      IperfClient::Mode::kUdp, sim::Duration::seconds(1),
      [&](IperfResult r) {
        result = r;
        done = true;
      },
      5e6);
  sim.run_for(sim::Duration::seconds(10));
  EXPECT_TRUE(done);
  if (result.completed) {
    // ~30% of datagrams were lost; the report reflects the received share.
    EXPECT_LT(result.mbps, 4.6);
    EXPECT_GT(result.mbps, 1.5);
  }
}

TEST(Iperf, SequentialMeasurementsAreIndependent) {
  sim::Simulation sim(1);
  TwoHosts net(sim);
  IperfServer server(*net.b);
  server.start();

  std::vector<double> results;
  for (int rep = 0; rep < 3; ++rep) {
    IperfClient client(*net.a, net.b->ip());
    client.run(IperfClient::Mode::kTcp, sim::Duration::seconds(1),
               [&](IperfResult r) { results.push_back(r.mbps); });
    sim.run_for(sim::Duration::seconds(2));
  }
  ASSERT_EQ(results.size(), 3u);
  for (double mbps : results) EXPECT_GT(mbps, 85.0);
  EXPECT_EQ(server.connections_accepted(), 3u);
}

}  // namespace
}  // namespace barb::apps
