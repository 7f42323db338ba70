// End-to-end checksum protection: corrupted frames must never surface as
// corrupted application data — TCP/IP checksums catch the mangling and the
// retransmission machinery repairs the stream.
#include <gtest/gtest.h>

#include "stack/tcp.h"
#include "testutil/fixtures.h"
#include "testutil/tcp_helpers.h"

namespace barb::stack {
namespace {

using testutil::BulkSender;
using testutil::CorruptingNic;
using testutil::VerifyingReceiver;

struct CorruptingPair {
  CorruptingPair(sim::Simulation& sim, double probability) : link(sim) {
    a = testutil::make_host(sim, "a", 1, net::Ipv4Address(10, 0, 0, 1));
    auto nic = std::make_unique<CorruptingNic>(sim, net::MacAddress::from_host_id(2),
                                               "b/nic", probability);
    nic_ = nic.get();
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
  CorruptingNic* nic_ = nullptr;
};

class TcpCorruption : public ::testing::TestWithParam<double> {};

TEST_P(TcpCorruption, NoCorruptByteEverReachesTheApplication) {
  sim::Simulation sim(51);
  CorruptingPair net(sim, GetParam());
  VerifyingReceiver receiver;
  net.b->tcp_listen(5001, [&](std::shared_ptr<TcpConnection> c) { receiver.attach(c); });
  auto client = net.a->tcp_connect(net.b->ip(), 5001);
  BulkSender sender(client, 300'000);
  sim.run_for(sim::Duration::seconds(600));

  EXPECT_GT(net.nic_->corrupted(), 0u);
  EXPECT_EQ(receiver.received(), 300'000u);
  EXPECT_EQ(receiver.mismatches(), 0u);  // the strong property
}

INSTANTIATE_TEST_SUITE_P(Rates, TcpCorruption, ::testing::Values(0.02, 0.1, 0.25));

TEST(TcpCorruptionStats, CorruptionBehavesLikeLoss) {
  // Mangled segments are dropped by checksums, so the sender sees them as
  // loss and retransmits.
  sim::Simulation sim(52);
  CorruptingPair net(sim, 0.1);
  VerifyingReceiver receiver;
  net.b->tcp_listen(5001, [&](std::shared_ptr<TcpConnection> c) { receiver.attach(c); });
  auto client = net.a->tcp_connect(net.b->ip(), 5001);
  BulkSender sender(client, 500'000);
  sim.run_for(sim::Duration::seconds(600));
  ASSERT_EQ(receiver.received(), 500'000u);
  EXPECT_GT(client->stats().retransmissions, 10u);
}

}  // namespace
}  // namespace barb::stack
