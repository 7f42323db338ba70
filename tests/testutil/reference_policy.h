// Reference policy parser for the randomized differential tests.
//
// This is the straightforward form of firewall::parse_policy: each line is
// cut at '#', split into a vector of blank-separated tokens, and the tokens
// are matched by index. The one-pass cursor parser in src/firewall must
// accept exactly the same texts and fail on the same line with the same
// message; tests/firewall/policy_test.cc compares the two over seeded
// random lines, and the scenario fuzzer compares them on every generated
// corpus. Keep it simple: it is the oracle, not a second fast path.
#pragma once

#include <charconv>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "firewall/policy.h"

namespace barb::testutil::reference {

namespace policy_detail {

inline std::vector<std::string_view> tokenize(std::string_view line) {
  std::vector<std::string_view> tokens;
  std::size_t pos = 0;
  while (pos < line.size()) {
    while (pos < line.size() && (line[pos] == ' ' || line[pos] == '\t')) ++pos;
    std::size_t start = pos;
    while (pos < line.size() && line[pos] != ' ' && line[pos] != '\t') ++pos;
    if (pos > start) tokens.push_back(line.substr(start, pos - start));
  }
  return tokens;
}

inline bool parse_u16(std::string_view s, std::uint16_t& out) {
  unsigned value = 0;
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
  if (ec != std::errc() || ptr != s.data() + s.size() || value > 65535) return false;
  out = static_cast<std::uint16_t>(value);
  return true;
}

inline bool parse_u32(std::string_view s, std::uint32_t& out) {
  std::uint64_t value = 0;
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
  if (ec != std::errc() || ptr != s.data() + s.size() || value > 0xffffffffULL) {
    return false;
  }
  out = static_cast<std::uint32_t>(value);
  return true;
}

// "any" | ip | ip/prefix, optionally followed by "port lo[-hi]" tokens.
// Consumes tokens starting at `i`.
inline bool parse_endpoint(const std::vector<std::string_view>& tokens, std::size_t& i,
                           net::Ipv4Address& net_out, int& prefix_out,
                           firewall::PortRange& ports_out, std::string& error) {
  if (i >= tokens.size()) {
    error = "expected address";
    return false;
  }
  const std::string_view addr = tokens[i++];
  if (addr == "any") {
    net_out = net::Ipv4Address::any();
    prefix_out = 0;
  } else {
    const auto slash = addr.find('/');
    std::string_view ip_part = addr.substr(0, slash);
    auto ip = net::Ipv4Address::parse(ip_part);
    if (!ip) {
      error = "bad address '" + std::string(addr) + "'";
      return false;
    }
    net_out = *ip;
    if (slash == std::string_view::npos) {
      prefix_out = 32;
    } else {
      std::uint16_t prefix = 0;
      if (!parse_u16(addr.substr(slash + 1), prefix) || prefix > 32) {
        error = "bad prefix in '" + std::string(addr) + "'";
        return false;
      }
      prefix_out = prefix;
    }
  }
  ports_out = firewall::PortRange{};
  if (i < tokens.size() && tokens[i] == "port") {
    ++i;
    if (i >= tokens.size()) {
      error = "expected port number";
      return false;
    }
    const std::string_view spec = tokens[i++];
    const auto dash = spec.find('-');
    std::uint16_t lo = 0, hi = 0;
    if (dash == std::string_view::npos) {
      if (!parse_u16(spec, lo)) {
        error = "bad port '" + std::string(spec) + "'";
        return false;
      }
      hi = lo;
    } else {
      if (!parse_u16(spec.substr(0, dash), lo) || !parse_u16(spec.substr(dash + 1), hi) ||
          lo > hi) {
        error = "bad port range '" + std::string(spec) + "'";
        return false;
      }
    }
    if (lo == 0) {
      error = "port 0 is not allowed in a rule";
      return false;
    }
    ports_out = firewall::PortRange{lo, hi};
  }
  return true;
}

inline bool parse_protocol(std::string_view token, std::uint8_t& out) {
  if (token == "any") {
    out = 0;
  } else if (token == "tcp") {
    out = 6;
  } else if (token == "udp") {
    out = 17;
  } else if (token == "icmp") {
    out = 1;
  } else {
    return false;
  }
  return true;
}

}  // namespace policy_detail

inline firewall::PolicyParseResult parse_policy(std::string_view text) {
  using firewall::PolicyParseError;
  using firewall::PolicyParseResult;
  using firewall::Rule;
  using firewall::RuleAction;
  using namespace policy_detail;
  firewall::RuleSet rule_set;
  PolicyParseResult result;

  int line_no = 0;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const auto nl = text.find('\n', pos);
    std::string_view line =
        text.substr(pos, nl == std::string_view::npos ? text.size() - pos : nl - pos);
    pos = nl == std::string_view::npos ? text.size() + 1 : nl + 1;
    ++line_no;

    // Strip comments.
    const auto hash = line.find('#');
    if (hash != std::string_view::npos) line = line.substr(0, hash);
    const auto tokens = tokenize(line);
    if (tokens.empty()) continue;

    auto fail = [&](std::string message) {
      result.error = PolicyParseError{line_no, std::move(message)};
      return result;
    };

    if (tokens[0] == "default") {
      if (tokens.size() != 2) return fail("usage: default allow|deny");
      if (tokens[1] == "allow") {
        rule_set.set_default_action(RuleAction::kAllow);
      } else if (tokens[1] == "deny") {
        rule_set.set_default_action(RuleAction::kDeny);
      } else {
        return fail("default action must be allow or deny");
      }
      continue;
    }

    if (tokens[0] == "allow" || tokens[0] == "deny") {
      Rule rule;
      rule.action = tokens[0] == "allow" ? RuleAction::kAllow : RuleAction::kDeny;
      std::size_t i = 1;
      if (i >= tokens.size()) return fail("expected protocol");
      if (!parse_protocol(tokens[i++], rule.protocol)) {
        return fail("unknown protocol '" + std::string(tokens[i - 1]) + "'");
      }
      std::string error;
      if (i >= tokens.size() || tokens[i] != "from") return fail("expected 'from'");
      ++i;
      if (!parse_endpoint(tokens, i, rule.src_net, rule.src_prefix, rule.src_ports,
                          error)) {
        return fail(error);
      }
      if (i >= tokens.size() || tokens[i] != "to") return fail("expected 'to'");
      ++i;
      if (!parse_endpoint(tokens, i, rule.dst_net, rule.dst_prefix, rule.dst_ports,
                          error)) {
        return fail(error);
      }
      if (i < tokens.size() && tokens[i] == "oneway") {
        rule.bidirectional = false;
        ++i;
      }
      if (i != tokens.size()) return fail("trailing tokens");
      rule_set.add(rule);
      continue;
    }

    if (tokens[0] == "vpg") {
      Rule rule;
      rule.action = RuleAction::kVpg;
      std::size_t i = 1;
      if (i >= tokens.size() || !parse_u32(tokens[i], rule.vpg_id) || rule.vpg_id == 0) {
        return fail("expected nonzero vpg id");
      }
      ++i;
      std::string error;
      if (i >= tokens.size() || tokens[i] != "between") return fail("expected 'between'");
      ++i;
      if (!parse_endpoint(tokens, i, rule.src_net, rule.src_prefix, rule.src_ports,
                          error)) {
        return fail(error);
      }
      if (i >= tokens.size() || tokens[i] != "and") return fail("expected 'and'");
      ++i;
      if (!parse_endpoint(tokens, i, rule.dst_net, rule.dst_prefix, rule.dst_ports,
                          error)) {
        return fail(error);
      }
      if (i != tokens.size()) return fail("trailing tokens");
      rule_set.add(rule);
      continue;
    }

    return fail("unknown directive '" + std::string(tokens[0]) + "'");
  }

  result.rule_set = std::move(rule_set);
  return result;
}

// Empty when the two parses agree on ok(), the error line and message, the
// default action and every field of every rule; otherwise the first
// difference.
inline std::string policy_difference(const firewall::PolicyParseResult& got,
                                     const firewall::PolicyParseResult& want) {
  if (got.ok() != want.ok()) {
    return std::string("ok() ") + (got.ok() ? "true" : "false") + " vs " +
           (want.ok() ? "true" : "false") +
           (want.error ? " (reference error: line " + std::to_string(want.error->line) +
                             ": " + want.error->message + ")"
                       : std::string()) +
           (got.error ? " (error: line " + std::to_string(got.error->line) + ": " +
                            got.error->message + ")"
                      : std::string());
  }
  if (got.error.has_value() != want.error.has_value()) return "error presence differs";
  if (got.error) {
    if (got.error->line != want.error->line) {
      return "error line " + std::to_string(got.error->line) + " vs " +
             std::to_string(want.error->line);
    }
    if (got.error->message != want.error->message) {
      return "error message '" + got.error->message + "' vs '" + want.error->message +
             "'";
    }
  }
  if (!got.ok()) return {};
  const auto& a = *got.rule_set;
  const auto& b = *want.rule_set;
  if (a.default_action() != b.default_action()) return "default action differs";
  if (a.size() != b.size()) {
    return "rule count " + std::to_string(a.size()) + " vs " + std::to_string(b.size());
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    const firewall::Rule& x = a.rules()[i];
    const firewall::Rule& y = b.rules()[i];
    if (x.action != y.action || x.protocol != y.protocol || x.src_net != y.src_net ||
        x.src_prefix != y.src_prefix || x.dst_net != y.dst_net ||
        x.dst_prefix != y.dst_prefix || x.src_ports != y.src_ports ||
        x.dst_ports != y.dst_ports || x.bidirectional != y.bidirectional ||
        x.vpg_id != y.vpg_id) {
      return "rule " + std::to_string(i) + ": '" + x.to_string() + "' vs '" +
             y.to_string() + "'";
    }
  }
  return {};
}

}  // namespace barb::testutil::reference
