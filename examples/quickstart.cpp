// Quickstart: build a two-host network with an EFW-protected server, write a
// policy in the DSL, and exchange traffic through the firewall.
//
//   $ ./quickstart
//
// Walks through the core public API: Simulation, Link, Host, AddressDirectory,
// FirewallNic, parse_policy, UDP sockets, and TCP connections.
#include <cstdio>
#include <memory>

#include "firewall/nic_firewall.h"
#include "firewall/policy.h"
#include "firewall/profiles.h"
#include "link/link.h"
#include "sim/simulation.h"
#include "stack/host.h"
#include "stack/tcp.h"
#include "stack/udp.h"

using namespace barb;

int main() {
  // 1. A simulation context: deterministic clock, scheduler, RNG.
  sim::Simulation sim(/*seed=*/42);

  // 2. A full-duplex 100 Mbps Ethernet link.
  link::Link wire(sim);

  // 3. Two hosts. The client has a plain NIC; the server's NIC is a 3Com
  //    EFW model (embedded firewall on the card).
  stack::Host client(sim, "client", net::Ipv4Address(10, 0, 0, 1),
                     std::make_unique<stack::StandardNic>(
                         sim, net::MacAddress::from_host_id(1), "client/nic"));
  auto efw_nic = std::make_unique<firewall::FirewallNic>(
      sim, net::MacAddress::from_host_id(2), "server/efw", firewall::efw_profile());
  firewall::FirewallNic* efw = efw_nic.get();
  stack::Host server(sim, "server", net::Ipv4Address(10, 0, 0, 2),
                     std::move(efw_nic));

  client.nic().attach(wire.a());
  server.nic().attach(wire.b());

  // Address resolution: one frozen directory of every host's binding,
  // shared by both hosts (TopologyBuilder does this for every fabric).
  stack::AddressDirectory directory;
  directory.add(client.ip(), client.mac());
  directory.add(server.ip(), server.mac());
  directory.freeze();
  client.set_directory(&directory);
  server.set_directory(&directory);

  // 4. Write a policy in the DSL and install it on the card.
  const char* policy_text =
      "# server policy: web and a udp echo service, everything else denied\n"
      "default deny\n"
      "allow tcp from any to 10.0.0.2 port 80\n"
      "allow udp from any to 10.0.0.2 port 7\n";
  auto policy = firewall::parse_policy(policy_text);
  if (!policy.ok()) {
    std::printf("policy error at line %d: %s\n", policy.error->line,
                policy.error->message.c_str());
    return 1;
  }
  efw->install_rule_set(std::move(*policy.rule_set));
  std::printf("installed policy:\n%s\n", efw->rule_set().to_string().c_str());

  // 5. A UDP echo service on the allowed port...
  auto* echo = server.udp_open(7);
  echo->set_receiver([echo](net::Ipv4Address src, std::uint16_t port,
                            std::span<const std::uint8_t> data) {
    std::vector<std::uint8_t> reply(data.begin(), data.end());
    echo->send_to(src, port, reply);
  });

  // ...and a client socket that talks to it, plus one to a denied port.
  auto* sock = client.udp_open(0);
  sock->set_receiver([](net::Ipv4Address, std::uint16_t,
                        std::span<const std::uint8_t> data) {
    std::printf("client <- echo reply: \"%.*s\"\n", static_cast<int>(data.size()),
                reinterpret_cast<const char*>(data.data()));
  });
  const std::string hello = "hello through the firewall";
  sock->send_to(server.ip(), 7,
                {reinterpret_cast<const std::uint8_t*>(hello.data()), hello.size()});
  sock->send_to(server.ip(), 9999,
                {reinterpret_cast<const std::uint8_t*>(hello.data()), hello.size()});

  // 6. A TCP connection to the allowed web port.
  server.tcp_listen(80, [](std::shared_ptr<stack::TcpConnection> conn) {
    conn->on_data = [conn](std::span<const std::uint8_t>) {
      const std::string response = "HTTP/1.0 200 OK\r\n\r\nhi";
      conn->send({reinterpret_cast<const std::uint8_t*>(response.data()),
                  response.size()});
      conn->close();
    };
  });
  auto conn = client.tcp_connect(server.ip(), 80);
  conn->on_connected = [conn] {
    std::printf("client: TCP connected to :80 through the EFW\n");
    const std::string request = "GET / HTTP/1.0\r\n\r\n";
    conn->send({reinterpret_cast<const std::uint8_t*>(request.data()),
                request.size()});
  };
  conn->on_data = [](std::span<const std::uint8_t> data) {
    std::printf("client <- server: %.*s\n", static_cast<int>(data.size()),
                reinterpret_cast<const char*>(data.data()));
  };

  // 7. Run the simulation to completion.
  sim.run();

  const auto& fw = efw->fw_stats();
  std::printf("\nfirewall: %llu frames processed, %llu allowed in, %llu denied in\n",
              static_cast<unsigned long long>(fw.frames_processed),
              static_cast<unsigned long long>(fw.rx_allowed),
              static_cast<unsigned long long>(fw.rx_denied));
  std::printf("simulated time: %s, events: %llu\n", sim.now().to_string().c_str(),
              static_cast<unsigned long long>(sim.events_executed()));
  return 0;
}
