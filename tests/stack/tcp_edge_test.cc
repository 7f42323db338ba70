// TCP edge cases beyond the bulk-transfer paths.
#include <gtest/gtest.h>

#include "stack/tcp.h"
#include "stack/udp.h"
#include "testutil/fixtures.h"
#include "testutil/tcp_helpers.h"

namespace barb::stack {
namespace {

using testutil::BulkSender;
using testutil::TwoHosts;
using testutil::VerifyingReceiver;

TEST(TcpEdge, AsymmetricMssUsesTheMinimum) {
  sim::Simulation sim(1);
  link::Link link(sim);
  stack::HostConfig small_mss;
  small_mss.mss = 900;
  auto a = testutil::make_host(sim, "a", 1, net::Ipv4Address(10, 0, 0, 1));
  auto b = testutil::make_host(sim, "b", 2, net::Ipv4Address(10, 0, 0, 2), small_mss);
  a->nic().attach(link.a());
  b->nic().attach(link.b());
  AddressDirectory directory;
  testutil::share_directory(directory, {a.get(), b.get()});

  std::shared_ptr<TcpConnection> server_conn;
  b->tcp_listen(80, [&](std::shared_ptr<TcpConnection> c) { server_conn = c; });
  auto client = a->tcp_connect(b->ip(), 80);
  sim.run();
  ASSERT_NE(server_conn, nullptr);
  EXPECT_EQ(client->mss(), 900);
  EXPECT_EQ(server_conn->mss(), 900);
}

TEST(TcpEdge, HalfCloseStillDelivers) {
  // Client closes its sending side; the server keeps sending afterwards
  // (CLOSE_WAIT transmission) and the client receives it all.
  sim::Simulation sim(2);
  TwoHosts net(sim);

  std::shared_ptr<TcpConnection> server_conn;
  net.b->tcp_listen(80, [&](std::shared_ptr<TcpConnection> c) {
    server_conn = c;
    c->on_peer_closed = [c] {
      // Peer finished talking; answer with our own data, then close.
      const std::vector<std::uint8_t> data(5000, 0x7e);
      c->send(data);
      c->close();
    };
  });

  std::size_t received = 0;
  bool client_saw_eof = false;
  auto client = net.a->tcp_connect(net.b->ip(), 80);
  client->on_data = [&](std::span<const std::uint8_t> d) { received += d.size(); };
  client->on_peer_closed = [&] { client_saw_eof = true; };
  client->on_connected = [&] { client->close(); };  // half-close immediately
  sim.run_for(sim::Duration::seconds(10));

  EXPECT_EQ(received, 5000u);
  EXPECT_TRUE(client_saw_eof);
  EXPECT_EQ(client->state(), TcpState::kClosed);
}

TEST(TcpEdge, WindowLimitsThroughputOnHighRttPath) {
  // With a 20 ms one-way delay and a fixed 64 KB window, throughput must sit
  // near window/RTT (~13 Mbps), far under the 100 Mbps line.
  sim::Simulation sim(3);
  link::LinkConfig cfg;
  cfg.propagation = sim::Duration::milliseconds(20);
  TwoHosts net(sim, cfg);

  VerifyingReceiver receiver;
  net.b->tcp_listen(5001, [&](std::shared_ptr<TcpConnection> c) { receiver.attach(c); });
  auto client = net.a->tcp_connect(net.b->ip(), 5001);
  BulkSender sender(client, 20'000'000, /*close_when_done=*/false);
  sim.run_for(sim::Duration::seconds(10));

  const double mbps = static_cast<double>(receiver.received()) * 8 / 10.0 / 1e6;
  const double window_limit = 65535.0 * 8 / 0.040 / 1e6;  // ~13.1 Mbps
  EXPECT_LT(mbps, window_limit * 1.1);
  EXPECT_GT(mbps, window_limit * 0.6);
}

TEST(TcpEdge, IdleEstablishedConnectionStaysUp) {
  sim::Simulation sim(4);
  TwoHosts net(sim);
  std::shared_ptr<TcpConnection> server_conn;
  net.b->tcp_listen(80, [&](std::shared_ptr<TcpConnection> c) { server_conn = c; });
  auto client = net.a->tcp_connect(net.b->ip(), 80);
  sim.run();
  ASSERT_EQ(client->state(), TcpState::kEstablished);

  sim.run_for(sim::Duration::seconds(600));  // ten silent minutes
  EXPECT_EQ(client->state(), TcpState::kEstablished);
  EXPECT_EQ(server_conn->state(), TcpState::kEstablished);

  // Still works afterwards.
  std::string got;
  server_conn->on_data = [&](std::span<const std::uint8_t> d) {
    got.assign(d.begin(), d.end());
  };
  const std::string msg = "still here";
  client->send({reinterpret_cast<const std::uint8_t*>(msg.data()), msg.size()});
  sim.run();
  EXPECT_EQ(got, "still here");
}

TEST(TcpEdge, ManySequentialConnectionsRecyclePorts) {
  // Hundreds of connect/close cycles against one server must not leak
  // connections or exhaust ports (TIME_WAIT entries expire).
  sim::Simulation sim(5);
  TwoHosts net(sim);
  net.b->tcp_listen(80, [](std::shared_ptr<TcpConnection> c) {
    c->on_peer_closed = [c] { c->close(); };
  });

  int completed = 0;
  for (int i = 0; i < 300; ++i) {
    auto client = net.a->tcp_connect(net.b->ip(), 80);
    ASSERT_NE(client, nullptr);
    client->on_connected = [client] { client->close(); };
    client->on_closed = [&completed] { ++completed; };
    sim.run_for(sim::Duration::milliseconds(25));
  }
  sim.run_for(sim::Duration::seconds(5));
  EXPECT_EQ(completed, 300);
}

TEST(TcpEdge, ListenerBacklogOfSimultaneousSyns) {
  // 20 clients connect at the same instant; all must establish.
  sim::Simulation sim(6);
  TwoHosts net(sim);
  int accepted = 0;
  net.b->tcp_listen(80, [&](std::shared_ptr<TcpConnection>) { ++accepted; });

  std::vector<std::shared_ptr<TcpConnection>> clients;
  int connected = 0;
  for (int i = 0; i < 20; ++i) {
    auto c = net.a->tcp_connect(net.b->ip(), 80);
    ASSERT_NE(c, nullptr);
    c->on_connected = [&connected] { ++connected; };
    clients.push_back(std::move(c));
  }
  sim.run_for(sim::Duration::seconds(5));
  EXPECT_EQ(accepted, 20);
  EXPECT_EQ(connected, 20);
}

TEST(TcpEdge, DataArrivingWithFinalHandshakeAck) {
  // The client sends data immediately on connect; the server may see the
  // handshake-completing ACK and the first data in quick succession.
  sim::Simulation sim(7);
  TwoHosts net(sim);
  std::string got;
  net.b->tcp_listen(80, [&](std::shared_ptr<TcpConnection> c) {
    c->on_data = [&](std::span<const std::uint8_t> d) { got.append(d.begin(), d.end()); };
  });
  auto client = net.a->tcp_connect(net.b->ip(), 80);
  client->on_connected = [&] {
    const std::string msg = "eager data";
    client->send({reinterpret_cast<const std::uint8_t*>(msg.data()), msg.size()});
  };
  sim.run();
  EXPECT_EQ(got, "eager data");
}

}  // namespace
}  // namespace barb::stack
