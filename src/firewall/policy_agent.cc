#include "firewall/policy_agent.h"

#include <charconv>

#include "util/heap_bytes.h"
#include "util/logging.h"

namespace barb::firewall {

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
    reconnect_timer_ = host_.simulation().schedule(reconnect_delay, [this] {
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
    reconnect_timer_ = host_.simulation().schedule(reconnect_delay, [this] {
      ++stats_.reconnects;
      connect();
    });
  };
}

void PolicyAgent::schedule_heartbeat() {
  heartbeat_timer_ = host_.simulation().schedule(heartbeat_interval, [this] {
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

void PolicyAgent::apply_policy(const std::string& body) {
  // Body: "version <n>\n" followed by policy text; "vpgkey <id> <hex>"
  // lines carry VPG key material and are stripped before parsing.
  std::uint64_t version = 0;
  std::string policy_text;
  std::vector<std::pair<std::uint32_t, std::vector<std::uint8_t>>> keys;

  std::size_t pos = 0;
  bool ok = true;
  while (pos < body.size()) {
    const auto nl = body.find('\n', pos);
    const std::string_view line(body.data() + pos,
                                (nl == std::string::npos ? body.size() : nl) - pos);
    pos = nl == std::string::npos ? body.size() : nl + 1;

    if (line.starts_with("version ")) {
      const auto num = line.substr(8);
      if (std::from_chars(num.data(), num.data() + num.size(), version).ec !=
          std::errc()) {
        ok = false;
      }
    } else if (line.starts_with("vpgkey ")) {
      std::uint32_t id = 0;
      const auto rest = line.substr(7);
      const auto space = rest.find(' ');
      if (space == std::string_view::npos) {
        ok = false;
        continue;
      }
      const auto id_text = rest.substr(0, space);
      if (std::from_chars(id_text.data(), id_text.data() + id_text.size(), id).ec !=
          std::errc()) {
        ok = false;
        continue;
      }
      auto key_bytes = parse_hex(rest.substr(space + 1));
      if (!key_bytes || key_bytes->size() != 32) {
        ok = false;
        continue;
      }
      keys.emplace_back(id, std::move(*key_bytes));
    } else {
      policy_text.append(line);
      policy_text.push_back('\n');
    }
  }

  auto parsed = parse_policy(policy_text);
  if (!ok || !parsed.ok()) {
    ++stats_.policy_errors;
    if (parsed.error) {
      BARB_WARN("%s agent: policy parse error line %d: %s", host_.name().c_str(),
                parsed.error->line, parsed.error->message.c_str());
    }
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
