#include "firewall/policy_agent.h"

#include <charconv>
#include <optional>
#include <string_view>
#include <utility>

#include "util/heap_bytes.h"
#include "util/logging.h"

namespace barb::firewall {

namespace {

// Card-health report cadence while connected.
constexpr sim::Duration kHeartbeatInterval = sim::Duration::seconds(1);
// Wait before redialling the server after a failed or lost connection.
constexpr sim::Duration kReconnectDelay = sim::Duration::seconds(2);

}  // namespace

PolicyAgent::PolicyAgent(stack::Host& host, FirewallNic& nic, net::Ipv4Address server_ip,
                         std::span<const std::uint8_t> deployment_key,
                         std::uint16_t server_port)
    : host_(host),
      nic_(nic),
      server_ip_(server_ip),
      server_port_(server_port),
      key_(deployment_key.begin(), deployment_key.end()) {}

void PolicyAgent::start() { connect(); }

std::size_t PolicyAgent::memory_bytes() const {
  return util::heap_bytes(key_) + reader_.memory_bytes();
}

void PolicyAgent::start_after(sim::Duration delay) {
  reconnect_timer_ = host_.simulation().schedule(delay, [this] { connect(); });
}

void PolicyAgent::connect() {
  reader_ = PolicyMessageReader{};
  conn_ = host_.tcp_connect(server_ip_, server_port_);
  if (!conn_) {
    reconnect_timer_ = host_.simulation().schedule(kReconnectDelay, [this] {
      ++stats_.reconnects;
      connect();
    });
    return;
  }
  conn_->on_connected = [this] {
    send(PolicyMsgType::kHello, "host " + host_.ip().to_string());
    schedule_heartbeat();
  };
  conn_->on_data = [this](std::span<const std::uint8_t> data) {
    reader_.append(data);
    while (auto msg = reader_.next(key_)) {
      on_message(*msg);
    }
    if (reader_.corrupted()) conn_->abort();
  };
  conn_->on_closed = [this] {
    conn_ = nullptr;
    heartbeat_timer_.cancel();
    reconnect_timer_ = host_.simulation().schedule(kReconnectDelay, [this] {
      ++stats_.reconnects;
      connect();
    });
  };
}

void PolicyAgent::schedule_heartbeat() {
  heartbeat_timer_ = host_.simulation().schedule(kHeartbeatInterval, [this] {
    if (!conn_) return;
    std::string body = nic_.locked_up() ? "status locked" : "status ok";
    body += " processed " + std::to_string(nic_.fw_stats().frames_processed);
    send(PolicyMsgType::kHeartbeat, std::move(body));
    schedule_heartbeat();
  });
}

void PolicyAgent::send(PolicyMsgType type, std::string body) {
  if (!conn_) return;
  PolicyMessage msg;
  msg.type = type;
  msg.seq = next_seq_++;
  msg.body = std::move(body);
  conn_->send(encode_policy_message(msg, key_));
}

void PolicyAgent::on_message(const PolicyMessage& msg) {
  switch (msg.type) {
    case PolicyMsgType::kPolicyUpdate:
      apply_policy(msg.body);
      break;
    case PolicyMsgType::kRestart:
      nic_.restart();
      ++stats_.restarts_executed;
      break;
    default:
      break;
  }
}

namespace {

// Splits the first line, without its newline, off `rest`.
std::string_view take_line(std::string_view& rest) {
  const std::size_t nl = rest.find('\n');
  const std::string_view line = rest.substr(0, nl);
  rest.remove_prefix(nl == std::string_view::npos ? rest.size() : nl + 1);
  return line;
}

// "vpgkey <id> <64 hex digits>" without its keyword.
std::optional<std::pair<std::uint32_t, std::vector<std::uint8_t>>> parse_key_line(
    std::string_view rest) {
  const auto space = rest.find(' ');
  if (space == std::string_view::npos) return std::nullopt;
  std::uint32_t id = 0;
  if (std::from_chars(rest.data(), rest.data() + space, id).ec != std::errc()) {
    return std::nullopt;
  }
  auto key = parse_hex(rest.substr(space + 1));
  if (!key || key->size() != 32) return std::nullopt;
  return std::pair{id, std::move(*key)};
}

}  // namespace

void PolicyAgent::apply_policy(std::string_view body) {
  // Body: a "version <n>" line, one "vpgkey <id> <hex>" line per VPG key,
  // then the policy text, which is parsed where it lies (its error line
  // numbers count from its own first line).
  std::uint64_t version = 0;
  std::vector<std::pair<std::uint32_t, std::vector<std::uint8_t>>> keys;
  const std::string_view version_line = take_line(body);
  bool ok = version_line.starts_with("version ") &&
            std::from_chars(version_line.data() + 8,
                            version_line.data() + version_line.size(), version)
                    .ec == std::errc();
  while (ok && body.starts_with("vpgkey ")) {
    auto key = parse_key_line(take_line(body).substr(7));
    ok = key.has_value();
    if (ok) keys.push_back(std::move(*key));
  }
  if (!ok) {
    ++stats_.policy_errors;
    BARB_WARN("%s agent: malformed policy header", host_.name().c_str());
    return;
  }

  auto parsed = parse_policy(body);
  if (!parsed.ok()) {
    ++stats_.policy_errors;
    BARB_WARN("%s agent: policy parse error line %d: %s", host_.name().c_str(),
              parsed.error->line, parsed.error->message.c_str());
    return;
  }

  nic_.install_rule_set(std::move(*parsed.rule_set));
  for (auto& [id, key] : keys) {
    nic_.vpg_table().install(id, key);
  }
  ++stats_.policies_applied;
  stats_.last_version = version;
  send(PolicyMsgType::kAck, "version " + std::to_string(version));
}

}  // namespace barb::firewall
