#include "firewall/policy_server.h"

#include <algorithm>
#include <charconv>
#include <string_view>
#include <utility>

#include "util/byte_io.h"
#include "util/heap_bytes.h"
#include "util/logging.h"

namespace barb::firewall {

struct PolicyServer::Session {
  std::shared_ptr<stack::TcpConnection> conn;
  PolicyMessageReader reader;
  net::Ipv4Address agent;  // set after hello
  bool identified = false;
  // Encoded bytes, in message order, that the connection's send buffer had
  // no room for yet; the first `unsent_offset` of them have gone since.
  std::vector<std::uint8_t> unsent;
  std::size_t unsent_offset = 0;

  // Queues a message behind any unsent bytes; what the connection accepts
  // goes now, the rest when it reports send space.
  void send(std::span<const std::uint8_t> bytes) {
    if (unsent.empty()) {
      bytes = bytes.subspan(conn->send(bytes));
      if (bytes.empty()) return;
    } else {
      unsent.erase(unsent.begin(), unsent.begin() + static_cast<long>(unsent_offset));
      unsent_offset = 0;
    }
    unsent.insert(unsent.end(), bytes.begin(), bytes.end());
  }

  void flush() {
    if (unsent.empty()) return;
    unsent_offset += conn->send(std::span(unsent).subspan(unsent_offset));
    if (unsent_offset == unsent.size()) {
      unsent = std::vector<std::uint8_t>();
      unsent_offset = 0;
    }
  }

  std::size_t memory_bytes() const {
    return reader.memory_bytes() + util::heap_bytes(unsent);
  }
};

PolicyServer::PolicyServer(stack::Host& host, std::span<const std::uint8_t> deployment_key,
                           std::uint16_t port)
    : host_(host), key_(deployment_key.begin(), deployment_key.end()), port_(port) {}

PolicyServer::~PolicyServer() = default;

void PolicyServer::start() {
  host_.tcp_listen(port_, [this](std::shared_ptr<stack::TcpConnection> conn) {
    auto session = std::make_shared<Session>();
    session->conn = conn;
    pending_.push_back(session);
    conn->on_data = [this, session](std::span<const std::uint8_t> data) {
      session->reader.append(data);
      while (auto msg = session->reader.next(key_)) {
        handle_message(*session, *msg);
      }
      if (session->reader.corrupted()) {
        BARB_WARN("policy server: corrupted stream from %s, dropping",
                  session->agent.to_string().c_str());
        ++stats_.corrupted_streams;
        session->conn->abort();
      }
    };
    conn->on_send_space = [session] { session->flush(); };
    conn->on_closed = [this, session] {
      // A session replaced by a newer hello from the same agent closes
      // without touching the live one.
      const auto it =
          session->identified ? sessions_.find(session->agent) : sessions_.end();
      if (it != sessions_.end() && it->second == session) {
        agents_[session->agent].connected = false;
        sessions_.erase(it);
      }
      std::erase(pending_, session);
    };
  });
}

std::uint64_t PolicyServer::policy_version(net::Ipv4Address agent) const {
  auto it = policies_.find(agent);
  return it == policies_.end() ? 0 : it->second.version;
}

void PolicyServer::set_policy(net::Ipv4Address agent, std::string policy_text) {
  assign_policy(agent, std::make_shared<const std::string>(std::move(policy_text)));
}

void PolicyServer::assign_policy(net::Ipv4Address agent,
                                 std::shared_ptr<const std::string> text) {
  auto& entry = policies_[agent];
  entry.text = std::move(text);
  ++entry.version;
  push_policy(agent);
}

std::size_t PolicyServer::set_policy_all(std::span<const net::Ipv4Address> agents,
                                         const std::string& policy_text) {
  const auto text = std::make_shared<const std::string>(policy_text);
  std::size_t pushed = 0;
  for (const auto& agent : agents) {
    const bool live = sessions_.contains(agent);
    assign_policy(agent, text);
    if (live) ++pushed;
  }
  return pushed;
}

std::size_t PolicyServer::count_connected() const {
  std::size_t n = 0;
  for (const auto& [ip, status] : agents_) n += status.connected ? 1 : 0;
  return n;
}

std::size_t PolicyServer::count_acked_at_least(std::uint64_t version) const {
  std::size_t n = 0;
  for (const auto& [ip, status] : agents_) n += status.acked_version >= version ? 1 : 0;
  return n;
}

void PolicyServer::register_metrics(telemetry::MetricRegistry& registry,
                                    const std::string& labels) {
  registry.counter_fn("policy.pushes", labels,
                      [this] { return static_cast<double>(stats_.pushes); });
  registry.counter_fn("policy.push_bytes", labels,
                      [this] { return static_cast<double>(stats_.push_bytes); });
  registry.counter_fn("policy.acks", labels,
                      [this] { return static_cast<double>(stats_.acks); });
  registry.counter_fn("policy.heartbeats", labels,
                      [this] { return static_cast<double>(stats_.heartbeats); });
  registry.gauge("policy.connected", labels, [this] {
    return static_cast<double>(count_connected());
  });
}

std::size_t PolicyServer::memory_bytes() const {
  // make_shared keeps the object after two reference counts and a vtable
  // pointer.
  constexpr std::size_t kSharedHeader = sizeof(void*) + 2 * sizeof(int);
  std::size_t bytes = util::heap_bytes(key_) + util::heap_bytes(policies_) +
                      util::heap_bytes(agents_) + util::heap_bytes(sessions_) +
                      util::heap_bytes(pending_);
  std::vector<const std::string*> texts;
  for (const auto& [agent, entry] : policies_) {
    bytes += util::heap_bytes(entry.keys);
    for (const auto& k : entry.keys) bytes += util::heap_bytes(k.master_key);
    if (entry.text && std::ranges::find(texts, entry.text.get()) == texts.end()) {
      texts.push_back(entry.text.get());
      bytes += kSharedHeader + sizeof(std::string) + util::heap_bytes(*entry.text);
    }
  }
  for (const auto& [agent, session] : sessions_) {
    bytes += kSharedHeader + sizeof(Session) + session->memory_bytes();
  }
  for (const auto& session : pending_) {
    bytes += kSharedHeader + sizeof(Session) + session->memory_bytes();
  }
  return bytes;
}

void PolicyServer::create_vpg(std::uint32_t vpg_id,
                              std::span<const net::Ipv4Address> members) {
  std::vector<std::uint8_t> master(32);
  for (auto& byte : master) {
    byte = static_cast<std::uint8_t>(host_.simulation().rng().next_u64());
  }
  for (const auto& agent : members) {
    auto& entry = policies_[agent];
    // Replace any existing key for this VPG id.
    std::erase_if(entry.keys, [vpg_id](const VpgKeyEntry& k) { return k.vpg_id == vpg_id; });
    entry.keys.push_back(VpgKeyEntry{vpg_id, master});
    ++entry.version;
    push_policy(agent);
  }
}

void PolicyServer::command_restart(net::Ipv4Address agent) {
  PolicyMessage msg;
  msg.type = PolicyMsgType::kRestart;
  msg.seq = next_seq_++;
  send_to(agent, msg);
}

std::string PolicyServer::render_policy_body(net::Ipv4Address agent) {
  const auto& entry = policies_[agent];
  std::string body = "version " + std::to_string(entry.version) + "\n";
  for (const auto& k : entry.keys) {
    body += "vpgkey " + std::to_string(k.vpg_id) + " " + to_hex(k.master_key) + "\n";
  }
  if (entry.text) body += *entry.text;
  if (!body.ends_with('\n')) body += "\n";
  return body;
}

void PolicyServer::push_policy(net::Ipv4Address agent) {
  auto sit = sessions_.find(agent);
  if (sit == sessions_.end()) return;  // will be pushed on connect
  PolicyMessage msg;
  msg.type = PolicyMsgType::kPolicyUpdate;
  msg.seq = next_seq_++;
  msg.body = render_policy_body(agent);
  send_to(agent, msg);
  agents_[agent].pushed_version = policies_[agent].version;
  ++stats_.pushes;
}

void PolicyServer::send_to(net::Ipv4Address agent, const PolicyMessage& msg) {
  auto sit = sessions_.find(agent);
  if (sit == sessions_.end()) return;
  const auto bytes = encode_policy_message(msg, key_);
  stats_.push_bytes += msg.type == PolicyMsgType::kPolicyUpdate ? bytes.size() : 0;
  sit->second->send(bytes);
}

void PolicyServer::handle_message(Session& session, const PolicyMessage& msg) {
  switch (msg.type) {
    case PolicyMsgType::kHello: {
      // body: "host <ip>"
      const auto pos = msg.body.find("host ");
      if (pos != 0) return;
      auto ip = net::Ipv4Address::parse(
          std::string_view(msg.body).substr(5, msg.body.find_first_of(" \n", 5) - 5));
      if (!ip) return;
      session.identified = true;
      session.agent = *ip;
      // Adopt the session. One it replaces is stale (the agent reconnected
      // through a half-open connection): close it at both ends.
      const auto it = std::ranges::find_if(
          pending_, [&session](const auto& p) { return p.get() == &session; });
      if (it != pending_.end()) {
        const std::shared_ptr<Session> stale = std::exchange(sessions_[*ip], *it);
        pending_.erase(it);
        if (stale) stale->conn->abort();
      }
      auto& status = agents_[*ip];
      status.connected = true;
      status.last_heartbeat = host_.simulation().now();
      ++stats_.hellos;
      if (policies_.contains(*ip)) push_policy(*ip);
      break;
    }
    case PolicyMsgType::kAck: {
      // body: "version <n>". A malformed ack, or one naming a version never
      // pushed to this agent, is ignored.
      if (!session.identified) return;
      const std::string_view body(msg.body);
      if (!body.starts_with("version ")) return;
      const std::string_view num = body.substr(8);
      std::uint64_t version = 0;
      const auto [end, ec] = std::from_chars(num.data(), num.data() + num.size(), version);
      if (ec != std::errc() || end != num.data() + num.size()) return;
      auto& status = agents_[session.agent];
      if (version > status.pushed_version) return;
      status.acked_version = version;
      ++stats_.acks;
      break;
    }
    case PolicyMsgType::kHeartbeat: {
      if (!session.identified) return;
      auto& status = agents_[session.agent];
      status.last_heartbeat = host_.simulation().now();
      ++status.heartbeats;
      ++stats_.heartbeats;
      status.reported_locked = msg.body.find("status locked") != std::string::npos;
      break;
    }
    default:
      break;  // agents do not send server-bound types
  }
}

}  // namespace barb::firewall
