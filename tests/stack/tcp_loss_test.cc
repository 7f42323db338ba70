// TCP behaviour under frame loss — the mechanism that turns NIC-firewall
// packet drops into the paper's denial-of-service result.
#include <gtest/gtest.h>

#include "stack/tcp.h"
#include "testutil/fixtures.h"
#include "testutil/tcp_helpers.h"

namespace barb::stack {
namespace {

using testutil::BulkSender;
using testutil::LossyNic;
using testutil::VerifyingReceiver;

struct LossyPair {
  LossyPair(sim::Simulation& sim, double loss_at_b) : link(sim) {
    a = testutil::make_host(sim, "a", 1, net::Ipv4Address(10, 0, 0, 1));
    auto lossy_nic = std::make_unique<LossyNic>(sim, net::MacAddress::from_host_id(2),
                                                "b/nic", loss_at_b);
    b = std::make_unique<Host>(sim, "b", net::Ipv4Address(10, 0, 0, 2),
                               std::move(lossy_nic));
    a->nic().attach(link.a());
    b->nic().attach(link.b());
    testutil::share_directory(directory, {a.get(), b.get()});
  }

  link::Link link;
  AddressDirectory directory;
  std::unique_ptr<Host> a;
  std::unique_ptr<Host> b;
};

// Property sweep: data integrity survives any loss rate; throughput degrades.
class TcpLossRecovery : public ::testing::TestWithParam<double> {};

TEST_P(TcpLossRecovery, TransfersExactBytesDespiteLoss) {
  const double loss = GetParam();
  sim::Simulation sim(42);
  LossyPair net(sim, loss);

  VerifyingReceiver receiver;
  net.b->tcp_listen(5001, [&](std::shared_ptr<TcpConnection> c) { receiver.attach(c); });

  const std::size_t total = 200'000;
  auto client = net.a->tcp_connect(net.b->ip(), 5001);
  BulkSender sender(client, total);
  sim.run_for(sim::Duration::seconds(600));

  EXPECT_EQ(receiver.received(), total) << "loss=" << loss;
  EXPECT_EQ(receiver.mismatches(), 0u);
  if (loss >= 0.05) {
    // At 1% the ~140-frame transfer may see zero drops for a given seed;
    // at 5%+ drops are statistically certain.
    EXPECT_GT(client->stats().retransmissions, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(LossRates, TcpLossRecovery,
                         ::testing::Values(0.0, 0.01, 0.05, 0.15, 0.3));

TEST(TcpLoss, FastRetransmitRecoversSingleDrop) {
  // Moderate loss on a fast transfer must trigger fast retransmit (dupacks),
  // not only timeouts.
  sim::Simulation sim(7);
  LossyPair net(sim, 0.01);
  VerifyingReceiver receiver;
  net.b->tcp_listen(5001, [&](std::shared_ptr<TcpConnection> c) { receiver.attach(c); });
  auto client = net.a->tcp_connect(net.b->ip(), 5001);
  BulkSender sender(client, 2'000'000);
  sim.run_for(sim::Duration::seconds(600));
  EXPECT_EQ(receiver.received(), 2'000'000u);
  EXPECT_GT(client->stats().fast_retransmits, 0u);
}

TEST(TcpLoss, ThroughputCollapsesUnderHeavyLoss) {
  // The paper's DoS: heavy drop rates make goodput collapse by orders of
  // magnitude even though the link itself still has capacity.
  auto goodput_at = [](double loss) {
    sim::Simulation sim(11);
    LossyPair net(sim, loss);
    VerifyingReceiver receiver;
    net.b->tcp_listen(5001,
                      [&](std::shared_ptr<TcpConnection> c) { receiver.attach(c); });
    auto client = net.a->tcp_connect(net.b->ip(), 5001);
    // More data than a 100 Mbps link can move in the window, so the
    // measurement reflects rate, not completion.
    BulkSender sender(client, 200'000'000, /*close_when_done=*/false);
    sim.run_for(sim::Duration::seconds(10));
    return receiver.received() / 10.0 * 8.0;  // bits/s
  };

  const double clean = goodput_at(0.0);
  const double heavy = goodput_at(0.4);
  EXPECT_GT(clean, 80e6);
  EXPECT_LT(heavy, clean / 20.0);
}

TEST(TcpLoss, RetransmissionTimeoutBacksOff) {
  // Drop everything at the receiver after establishment: the sender must
  // back off exponentially, not hammer the network.
  sim::Simulation sim(3);
  LossyPair net(sim, 0.0);
  std::shared_ptr<TcpConnection> server_conn;
  net.b->tcp_listen(5001,
                    [&](std::shared_ptr<TcpConnection> c) { server_conn = c; });
  auto client = net.a->tcp_connect(net.b->ip(), 5001);
  sim.run();  // establish
  ASSERT_EQ(client->state(), TcpState::kEstablished);

  net.b->nic().set_host_sink(nullptr);  // black-hole the receiver
  const std::vector<std::uint8_t> data(1000, 0x55);
  client->send(data);
  sim.run_for(sim::Duration::seconds(30));

  const auto& st = client->stats();
  EXPECT_GE(st.timeouts, 3u);
  EXPECT_LE(st.timeouts, 9u);  // ~200ms,400ms,800ms,...: far fewer than linear
}

TEST(TcpLoss, LostSynIsRetried) {
  sim::Simulation sim(5);
  LossyPair net(sim, 0.9);  // most frames die, including handshake segments
  bool connected = false;
  net.b->tcp_listen(5001, [](std::shared_ptr<TcpConnection>) {});
  auto client = net.a->tcp_connect(net.b->ip(), 5001);
  client->on_connected = [&] { connected = true; };
  sim.run_for(sim::Duration::seconds(120));
  // With 5 SYN retries at 90% loss, connection establishment is likely but
  // not guaranteed; what must hold is that retries happened and the
  // connection reached a definite state.
  EXPECT_GT(client->stats().segments_sent, 1u);
  EXPECT_TRUE(connected || client->state() == TcpState::kClosed);
}

TEST(TcpLoss, OutOfOrderSegmentsReassemble) {
  // 30% loss forces plenty of reordering via retransmission; the verifying
  // receiver proves in-order delivery to the application.
  sim::Simulation sim(9);
  LossyPair net(sim, 0.3);
  VerifyingReceiver receiver;
  net.b->tcp_listen(5001, [&](std::shared_ptr<TcpConnection> c) { receiver.attach(c); });
  auto client = net.a->tcp_connect(net.b->ip(), 5001);
  BulkSender sender(client, 100'000);
  sim.run_for(sim::Duration::seconds(600));
  EXPECT_EQ(receiver.received(), 100'000u);
  EXPECT_EQ(receiver.mismatches(), 0u);
}

}  // namespace
}  // namespace barb::stack
