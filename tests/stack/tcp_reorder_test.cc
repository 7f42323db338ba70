// TCP under frame reordering: delayed duplicates and out-of-order delivery
// are exactly what a congested firewall NIC's queue produces.
#include <gtest/gtest.h>

#include <deque>

#include "stack/tcp.h"
#include "testutil/fixtures.h"
#include "testutil/tcp_helpers.h"

namespace barb::stack {
namespace {

using testutil::BulkSender;
using testutil::VerifyingReceiver;

// A NIC that randomly holds frames back for a short delay, letting later
// frames overtake them (and occasionally duplicates a frame).
class ReorderingNic : public StandardNic {
 public:
  ReorderingNic(sim::Simulation& sim, net::MacAddress mac, std::string name,
                double reorder_probability, bool duplicate = false)
      : StandardNic(sim, mac, std::move(name)),
        reorder_(reorder_probability),
        duplicate_(duplicate) {}

  void deliver(net::Packet pkt) override {
    if (sim_.rng().bernoulli(reorder_)) {
      // Hold this frame past the next few arrivals.
      const auto delay = sim::Duration::microseconds(
          200 + static_cast<std::int64_t>(sim_.rng().uniform(800)));
      // The completion callback needs the packet; share it via a move-once
      // wrapper.
      auto held = std::make_shared<net::Packet>(std::move(pkt));
      sim_.schedule(delay, [this, held] {
        StandardNic::deliver(*held);  // handle copy: same shared buffer
      });
      if (duplicate_ && sim_.rng().bernoulli(0.3)) {
        StandardNic::deliver(*held);
      }
      return;
    }
    StandardNic::deliver(std::move(pkt));
  }

 private:
  double reorder_;
  bool duplicate_;
};

struct ReorderPair {
  ReorderPair(sim::Simulation& sim, double reorder_prob, bool duplicate)
      : link(sim) {
    a = testutil::make_host(sim, "a", 1, net::Ipv4Address(10, 0, 0, 1));
    auto nic = std::make_unique<ReorderingNic>(sim, net::MacAddress::from_host_id(2),
                                               "b/nic", reorder_prob, duplicate);
    b = std::make_unique<Host>(sim, "b", net::Ipv4Address(10, 0, 0, 2),
                               std::move(nic));
    a->nic().attach(link.a());
    b->nic().attach(link.b());
    testutil::share_directory(directory, {a.get(), b.get()});
  }

  link::Link link;
  AddressDirectory directory;
  std::unique_ptr<Host> a;
  std::unique_ptr<Host> b;
};

class TcpReorder : public ::testing::TestWithParam<double> {};

TEST_P(TcpReorder, ByteExactUnderReordering) {
  sim::Simulation sim(21);
  ReorderPair net(sim, GetParam(), /*duplicate=*/false);
  VerifyingReceiver receiver;
  net.b->tcp_listen(5001, [&](std::shared_ptr<TcpConnection> c) { receiver.attach(c); });
  auto client = net.a->tcp_connect(net.b->ip(), 5001);
  BulkSender sender(client, 300'000);
  sim.run_for(sim::Duration::seconds(120));
  EXPECT_EQ(receiver.received(), 300'000u);
  EXPECT_EQ(receiver.mismatches(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Rates, TcpReorder, ::testing::Values(0.02, 0.1, 0.3));

TEST(TcpReorderDup, DuplicatedFramesAreHarmless) {
  sim::Simulation sim(22);
  ReorderPair net(sim, 0.1, /*duplicate=*/true);
  VerifyingReceiver receiver;
  net.b->tcp_listen(5001, [&](std::shared_ptr<TcpConnection> c) { receiver.attach(c); });
  auto client = net.a->tcp_connect(net.b->ip(), 5001);
  BulkSender sender(client, 200'000);
  sim.run_for(sim::Duration::seconds(120));
  EXPECT_EQ(receiver.received(), 200'000u);
  EXPECT_EQ(receiver.mismatches(), 0u);
}

TEST(TcpReorderDup, SpuriousFastRetransmitsStayBounded) {
  // Mild reordering may trigger some dupack-based retransmits but must not
  // dominate the transfer.
  sim::Simulation sim(23);
  ReorderPair net(sim, 0.05, /*duplicate=*/false);
  VerifyingReceiver receiver;
  net.b->tcp_listen(5001, [&](std::shared_ptr<TcpConnection> c) { receiver.attach(c); });
  auto client = net.a->tcp_connect(net.b->ip(), 5001);
  BulkSender sender(client, 500'000);
  sim.run_for(sim::Duration::seconds(120));
  ASSERT_EQ(receiver.received(), 500'000u);
  const auto& st = client->stats();
  EXPECT_LT(st.retransmissions, st.segments_sent / 4);
}

}  // namespace
}  // namespace barb::stack
