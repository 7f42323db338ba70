#include "firewall/policy.h"

#include <cstring>
#include <vector>

namespace barb::firewall {

namespace {

constexpr bool is_blank(char c) { return c == ' ' || c == '\t'; }
// A token is a run of bytes other than these; '#' starts a comment that
// runs to the end of the line.
constexpr bool ends_token(char c) { return is_blank(c) || c == '\n' || c == '#'; }

// Reads decimal digits from `p`, as std::from_chars does (no sign, leading
// zeros allowed). Returns the end of the digits, or nullptr when there are
// none or their value exceeds `max`.
const char* read_decimal(const char* p, const char* end, std::uint32_t max,
                         std::uint32_t& out) {
  const char* const start = p;
  std::uint64_t value = 0;
  for (; p != end; ++p) {
    const unsigned digit = static_cast<unsigned char>(*p) - static_cast<unsigned>('0');
    if (digit > 9) break;
    value = value * 10 + digit;
    if (value > max) return nullptr;
  }
  if (p == start) return nullptr;
  out = static_cast<std::uint32_t>(value);
  return p;
}

// All of `s` is a decimal number no greater than `max`.
bool parse_decimal(std::string_view s, std::uint32_t max, std::uint32_t& out) {
  const char* const end = s.data() + s.size();
  return read_decimal(s.data(), end, max, out) == end;
}

// Reads one line of policy text in a single pass. The cursor sits on the
// next token (or the end of the line); each take consumes a whole token
// and the blanks after it, or nothing when the token does not fit.
class LineCursor {
 public:
  LineCursor(const char* begin, const char* end) : pos_(begin), end_(end) {
    skip_blanks();
  }

  bool at_end() const { return pos_ == end_ || *pos_ == '\n' || *pos_ == '#'; }

  // The next token, whatever it is (empty at the end of the line).
  std::string_view take() {
    const char* start = pos_;
    while (pos_ != end_ && !ends_token(*pos_)) ++pos_;
    const std::string_view token(start, static_cast<std::size_t>(pos_ - start));
    skip_blanks();
    return token;
  }

  // The next token if it is `word`.
  bool take(std::string_view word) {
    const std::size_t n = word.size();
    const bool fits = static_cast<std::size_t>(end_ - pos_) >= n;
    return fits && std::memcmp(pos_, word.data(), n) == 0 && finish_token(pos_ + n);
  }

  // The next token if it is a decimal number no greater than `max`.
  bool take_decimal(std::uint32_t max, std::uint32_t& out) {
    std::uint32_t value = 0;
    const char* p = read_decimal(pos_, end_, max, value);
    if (p == nullptr || !finish_token(p)) return false;
    out = value;
    return true;
  }

  // The next token if it is "a.b.c.d" or "a.b.c.d/prefix" (prefix <= 32).
  bool take_address(net::Ipv4Address& address, int& prefix_out) {
    std::size_t length = 0;
    const auto ip = net::Ipv4Address::parse_front(
        std::string_view(pos_, static_cast<std::size_t>(end_ - pos_)), length);
    if (!ip) return false;
    const char* p = pos_ + length;
    std::uint32_t prefix = 32;
    if (p != end_ && *p == '/') p = read_decimal(p + 1, end_, 32, prefix);
    if (p == nullptr || !finish_token(p)) return false;
    address = *ip;
    prefix_out = static_cast<int>(prefix);
    return true;
  }

  // The next token if it is a port "p" or a range "lo-hi", with
  // 1 <= lo <= hi <= 65535.
  bool take_ports(PortRange& out) {
    std::uint32_t lo = 0, hi = 0;
    const char* p = read_decimal(pos_, end_, 65535, lo);
    if (p == nullptr) return false;
    hi = lo;
    if (p != end_ && *p == '-') p = read_decimal(p + 1, end_, 65535, hi);
    if (p == nullptr || lo == 0 || lo > hi || !finish_token(p)) return false;
    out = PortRange{static_cast<std::uint16_t>(lo), static_cast<std::uint16_t>(hi)};
    return true;
  }

  // Start of the next line, or nullptr after the last one. Call once the
  // line has no more tokens.
  const char* next_line() const {
    if (pos_ == end_) return nullptr;
    if (*pos_ == '\n') return pos_ + 1;
    const void* nl = std::memchr(pos_, '\n', static_cast<std::size_t>(end_ - pos_));
    return nl == nullptr ? nullptr : static_cast<const char*>(nl) + 1;
  }

 private:
  // Consumes up to `token_end` if a token ends there.
  bool finish_token(const char* token_end) {
    if (token_end != end_ && !ends_token(*token_end)) return false;
    pos_ = token_end;
    skip_blanks();
    return true;
  }

  void skip_blanks() {
    while (pos_ != end_ && is_blank(*pos_)) ++pos_;
  }

  const char* pos_;
  const char* end_;
};

// Why an address token take_address() refused is wrong.
std::string address_error(std::string_view addr) {
  const bool ip_ok = net::Ipv4Address::parse(addr.substr(0, addr.find('/'))).has_value();
  return (ip_ok ? "bad prefix in '" : "bad address '") + std::string(addr) + "'";
}

// Why a port spec take_ports() refused is wrong.
std::string port_error(std::string_view spec) {
  const auto dash = spec.find('-');
  std::uint32_t lo = 0, hi = 0;
  if (dash == std::string_view::npos) {
    if (!parse_decimal(spec, 65535, lo)) return "bad port '" + std::string(spec) + "'";
  } else if (!parse_decimal(spec.substr(0, dash), 65535, lo) ||
             !parse_decimal(spec.substr(dash + 1), 65535, hi) || lo > hi) {
    return "bad port range '" + std::string(spec) + "'";
  }
  return "port 0 is not allowed in a rule";
}

// "any" | ip | ip/prefix, optionally followed by "port lo[-hi]".
bool parse_endpoint(LineCursor& cur, net::Ipv4Address& net_out, int& prefix_out,
                    PortRange& ports_out, std::string& error) {
  if (cur.at_end()) {
    error = "expected address";
    return false;
  }
  if (cur.take("any")) {
    net_out = net::Ipv4Address::any();
    prefix_out = 0;
  } else if (!cur.take_address(net_out, prefix_out)) {
    error = address_error(cur.take());
    return false;
  }
  ports_out = PortRange{};
  if (!cur.take("port")) return true;
  if (cur.at_end()) {
    error = "expected port number";
    return false;
  }
  if (!cur.take_ports(ports_out)) {
    error = port_error(cur.take());
    return false;
  }
  return true;
}

// The rest of an allow/deny line: "<proto> from <endpoint> to <endpoint>
// [oneway]".
bool parse_filter_rule(LineCursor& cur, Rule& rule, std::string& error) {
  if (cur.at_end()) {
    error = "expected protocol";
    return false;
  }
  if (cur.take("tcp")) {
    rule.protocol = 6;
  } else if (cur.take("udp")) {
    rule.protocol = 17;
  } else if (cur.take("any")) {
    rule.protocol = 0;
  } else if (cur.take("icmp")) {
    rule.protocol = 1;
  } else {
    error = "unknown protocol '" + std::string(cur.take()) + "'";
    return false;
  }
  if (!cur.take("from")) {
    error = "expected 'from'";
    return false;
  }
  if (!parse_endpoint(cur, rule.src_net, rule.src_prefix, rule.src_ports, error)) {
    return false;
  }
  if (!cur.take("to")) {
    error = "expected 'to'";
    return false;
  }
  if (!parse_endpoint(cur, rule.dst_net, rule.dst_prefix, rule.dst_ports, error)) {
    return false;
  }
  if (cur.take("oneway")) rule.bidirectional = false;
  return true;
}

// The rest of a vpg line: "<id> between <endpoint> and <endpoint>".
bool parse_vpg_rule(LineCursor& cur, Rule& rule, std::string& error) {
  rule.action = RuleAction::kVpg;
  if (!cur.take_decimal(0xffffffffU, rule.vpg_id) || rule.vpg_id == 0) {
    error = "expected nonzero vpg id";
    return false;
  }
  if (!cur.take("between")) {
    error = "expected 'between'";
    return false;
  }
  if (!parse_endpoint(cur, rule.src_net, rule.src_prefix, rule.src_ports, error)) {
    return false;
  }
  if (!cur.take("and")) {
    error = "expected 'and'";
    return false;
  }
  return parse_endpoint(cur, rule.dst_net, rule.dst_prefix, rule.dst_ports, error);
}

// "default allow|deny".
bool parse_default(LineCursor& cur, RuleAction& action, std::string& error) {
  const std::string_view word = cur.take();
  if (word.empty() || !cur.at_end()) {
    error = "usage: default allow|deny";
    return false;
  }
  if (word != "allow" && word != "deny") {
    error = "default action must be allow or deny";
    return false;
  }
  action = word == "allow" ? RuleAction::kAllow : RuleAction::kDeny;
  return true;
}

std::size_t count_lines(std::string_view text) {
  std::size_t lines = 1;
  const char* const end = text.data() + text.size();
  for (const char* p = text.data(); p != end; ++lines) {
    p = static_cast<const char*>(std::memchr(p, '\n', static_cast<std::size_t>(end - p)));
    if (p == nullptr) break;
    ++p;
  }
  return lines;
}

}  // namespace

PolicyParseResult parse_policy(std::string_view text) {
  PolicyParseResult result;
  // A rule takes a line of its own.
  std::vector<Rule> rules;
  rules.reserve(count_lines(text));
  RuleAction default_action = RuleAction::kDeny;

  const char* const end = text.data() + text.size();
  int line_no = 0;
  std::string error;
  for (const char* line = text.data(); line != nullptr;) {
    ++line_no;
    LineCursor cur(line, end);
    if (!cur.at_end()) {
      bool ok = false;
      const bool allow = cur.take("allow");
      if (allow || cur.take("deny")) {
        Rule& rule = rules.emplace_back();
        rule.action = allow ? RuleAction::kAllow : RuleAction::kDeny;
        ok = parse_filter_rule(cur, rule, error);
      } else if (cur.take("vpg")) {
        ok = parse_vpg_rule(cur, rules.emplace_back(), error);
      } else if (cur.take("default")) {
        ok = parse_default(cur, default_action, error);
      } else {
        error = "unknown directive '" + std::string(cur.take()) + "'";
      }
      if (ok && !cur.at_end()) {
        error = "trailing tokens";
        ok = false;
      }
      if (!ok) {
        result.error = PolicyParseError{line_no, std::move(error)};
        return result;
      }
    }
    line = cur.next_line();
  }

  result.rule_set.emplace(std::move(rules), default_action);
  return result;
}

}  // namespace barb::firewall
