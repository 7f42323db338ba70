#include "firewall/policy.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "sim/random.h"
#include "testutil/reference_policy.h"

namespace barb::firewall {
namespace {

TEST(PolicyParser, MinimalAllowAll) {
  auto result = parse_policy("default deny\nallow any from any to any\n");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.rule_set->size(), 1u);
  EXPECT_EQ(result.rule_set->default_action(), RuleAction::kDeny);
  EXPECT_EQ(result.rule_set->rules()[0].action, RuleAction::kAllow);
  EXPECT_EQ(result.rule_set->rules()[0].protocol, 0);
}

TEST(PolicyParser, FullSelectorRule) {
  auto result = parse_policy(
      "allow tcp from 10.1.0.0/16 port 1024-65535 to 10.0.0.40 port 80\n");
  ASSERT_TRUE(result.ok());
  const Rule& r = result.rule_set->rules()[0];
  EXPECT_EQ(r.protocol, 6);
  EXPECT_EQ(r.src_net, net::Ipv4Address(10, 1, 0, 0));
  EXPECT_EQ(r.src_prefix, 16);
  EXPECT_EQ(r.src_ports, (PortRange{1024, 65535}));
  EXPECT_EQ(r.dst_net, net::Ipv4Address(10, 0, 0, 40));
  EXPECT_EQ(r.dst_prefix, 32);
  EXPECT_EQ(r.dst_ports, (PortRange{80, 80}));
  EXPECT_TRUE(r.bidirectional);
}

TEST(PolicyParser, OnewayModifier) {
  auto result = parse_policy("deny udp from 10.0.0.20 to any oneway\n");
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result.rule_set->rules()[0].bidirectional);
  EXPECT_EQ(result.rule_set->rules()[0].protocol, 17);
}

TEST(PolicyParser, VpgRule) {
  auto result = parse_policy("vpg 7 between 10.0.0.30 and 10.0.0.40 port 5001\n");
  ASSERT_TRUE(result.ok());
  const Rule& r = result.rule_set->rules()[0];
  EXPECT_EQ(r.action, RuleAction::kVpg);
  EXPECT_EQ(r.vpg_id, 7u);
  EXPECT_EQ(r.src_net, net::Ipv4Address(10, 0, 0, 30));
  EXPECT_EQ(r.dst_net, net::Ipv4Address(10, 0, 0, 40));
  EXPECT_EQ(r.dst_ports, (PortRange{5001, 5001}));
}

TEST(PolicyParser, CommentsAndBlankLines) {
  auto result = parse_policy(
      "# header comment\n"
      "\n"
      "default allow   # trailing comment\n"
      "   \t  \n"
      "deny icmp from any to any  # ping is rude\n");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.rule_set->default_action(), RuleAction::kAllow);
  EXPECT_EQ(result.rule_set->size(), 1u);
  EXPECT_EQ(result.rule_set->rules()[0].protocol, 1);
}

TEST(PolicyParser, EmptyPolicyIsValid) {
  auto result = parse_policy("");
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.rule_set->empty());
}

TEST(PolicyParser, RuleOrderPreserved) {
  auto result = parse_policy(
      "deny tcp from 192.168.0.1 to any\n"
      "allow any from any to any\n"
      "deny udp from any to any\n");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.rule_set->size(), 3u);
  EXPECT_EQ(result.rule_set->rules()[0].action, RuleAction::kDeny);
  EXPECT_EQ(result.rule_set->rules()[1].action, RuleAction::kAllow);
  EXPECT_EQ(result.rule_set->rules()[2].protocol, 17);
}

struct BadPolicyCase {
  const char* text;
  int error_line;
};

// gtest's default printer dumps the struct's bytes, text pointer included,
// and the ctest names are built from that, so they changed with every build.
// Print the expected line and the text (newlines as " / ") instead.
void PrintTo(const BadPolicyCase& c, std::ostream* os) {
  std::string text(c.text);
  if (!text.empty() && text.back() == '\n') text.pop_back();
  for (auto at = text.find('\n'); at != std::string::npos; at = text.find('\n', at)) {
    text.replace(at, 1, " / ");
  }
  *os << "line " << c.error_line << ", " << text;
}

class PolicyParserErrors : public ::testing::TestWithParam<BadPolicyCase> {};

TEST_P(PolicyParserErrors, RejectsWithLineNumber) {
  auto result = parse_policy(GetParam().text);
  ASSERT_FALSE(result.ok());
  ASSERT_TRUE(result.error.has_value());
  EXPECT_EQ(result.error->line, GetParam().error_line);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, PolicyParserErrors,
    ::testing::Values(
        BadPolicyCase{"frobnicate everything\n", 1},
        BadPolicyCase{"default maybe\n", 1},
        BadPolicyCase{"default\n", 1},
        BadPolicyCase{"allow tcp to any\n", 1},                     // missing from
        BadPolicyCase{"allow quic from any to any\n", 1},           // bad protocol
        BadPolicyCase{"allow tcp from 10.0.0.300 to any\n", 1},     // bad ip
        BadPolicyCase{"allow tcp from 10.0.0.0/40 to any\n", 1},    // bad prefix
        BadPolicyCase{"allow tcp from any port 99999 to any\n", 1},  // bad port
        BadPolicyCase{"allow tcp from any port 90-80 to any\n", 1},  // inverted
        BadPolicyCase{"allow tcp from any port 0 to any\n", 1},      // port 0
        BadPolicyCase{"allow tcp from any to any extra\n", 1},       // trailing
        BadPolicyCase{"vpg 0 between 10.0.0.1 and 10.0.0.2\n", 1},   // id 0
        BadPolicyCase{"vpg 1 between 10.0.0.1\n", 1},                // missing and
        BadPolicyCase{"default deny\nallow tcp frm any to any\n", 2}));

TEST(PolicyRoundTrip, SerializeParseIsIdentity) {
  const char* source =
      "default deny\n"
      "deny tcp from 192.168.0.1 to 192.168.250.1\n"
      "allow tcp from 10.1.0.0/16 port 1024-65535 to 10.0.0.40 port 80\n"
      "deny udp from 10.0.0.20 to any oneway\n"
      "vpg 7 between 10.0.0.30 and 10.0.0.40 port 5001\n"
      "allow any from any to any\n";
  auto first = parse_policy(source);
  ASSERT_TRUE(first.ok());
  const std::string serialized = first.rule_set->to_string();
  auto second = parse_policy(serialized);
  ASSERT_TRUE(second.ok()) << serialized;

  ASSERT_EQ(first.rule_set->size(), second.rule_set->size());
  EXPECT_EQ(first.rule_set->default_action(), second.rule_set->default_action());
  for (std::size_t i = 0; i < first.rule_set->size(); ++i) {
    EXPECT_EQ(first.rule_set->rules()[i].to_string(),
              second.rule_set->rules()[i].to_string())
        << "rule " << i;
  }
  // Serialization is a fixed point after one round.
  EXPECT_EQ(second.rule_set->to_string(), serialized);
}

// --- Differential against the reference tokenizer parser --------------------

// Random policy lines: a valid rule, default or vpg line as a token list,
// then zero to three mutations (cut, duplicated, dropped, swapped or garbled
// tokens, bad numbers, stray keywords, extra tokens beyond any rule's
// length), joined with random blanks and tabs and sometimes a comment or a
// carriage return.
class PolicyLineGenerator {
 public:
  explicit PolicyLineGenerator(std::uint64_t seed) : rng_(seed) {}

  std::string line() {
    if (rng_.bernoulli(0.03)) return blanks(true);
    if (rng_.bernoulli(0.02)) return blanks(true) + "#" + word();
    // Clean lines draw only valid values and are not mutated.
    clean_ = rng_.bernoulli(0.6);
    std::vector<std::string> tokens = valid_tokens();
    const int mutations = clean_ ? 0 : static_cast<int>(1 + rng_.uniform(3));
    for (int m = 0; m < mutations; ++m) mutate(tokens);
    std::string out = rng_.bernoulli(0.2) ? blanks(false) : std::string();
    for (std::size_t i = 0; i < tokens.size(); ++i) {
      if (i > 0) out += blanks(false);
      out += tokens[i];
    }
    if (rng_.bernoulli(0.1)) out += blanks(false);
    if (rng_.bernoulli(0.08)) out += (rng_.bernoulli(0.5) ? " #" : "#") + word();
    if (!clean_ && rng_.bernoulli(0.05)) out += "\r";
    return out;
  }

 private:
  std::string pick(std::initializer_list<const char*> options) {
    return *(options.begin() + rng_.uniform(options.size()));
  }

  std::string blanks(bool allow_empty) {
    std::string out;
    const std::size_t n = rng_.uniform(3) + (allow_empty ? 0 : 1);
    for (std::size_t i = 0; i < n; ++i) out += rng_.bernoulli(0.8) ? ' ' : '\t';
    return out;
  }

  std::string number() {
    switch (rng_.uniform(10)) {
      case 0: return "0";
      case 1: return "65535";
      case 2: return "65536";
      case 3: return "4294967295";
      case 4: return "4294967296";
      case 5: return "000" + std::to_string(rng_.uniform(100));
      case 6: return "-" + std::to_string(rng_.uniform(100));
      case 7: return "+" + std::to_string(rng_.uniform(100));
      case 8: return "99999999999999999999999";
      default: return std::to_string(1 + rng_.uniform(70000));
    }
  }

  std::string octet() {
    if (!clean_ && rng_.bernoulli(0.05)) return number();
    return std::to_string(rng_.uniform(clean_ || rng_.bernoulli(0.9) ? 256 : 300));
  }

  std::string address() {
    if (rng_.bernoulli(0.25)) return "any";
    std::string ip = octet() + "." + octet() + "." + octet() + "." + octet();
    if (rng_.bernoulli(0.4)) {
      ip += "/" + (clean_ ? std::to_string(1 + rng_.uniform(32))
                   : rng_.bernoulli(0.8) ? std::to_string(rng_.uniform(34))
                                         : number());
    }
    return ip;
  }

  std::string port_spec() {
    if (!clean_ && rng_.bernoulli(0.2)) return number();
    const auto lo = 1 + rng_.uniform(65535);
    if (rng_.bernoulli(0.5)) return std::to_string(lo);
    const auto hi =
        clean_ || rng_.bernoulli(0.7) ? lo + rng_.uniform(65536 - lo) : rng_.uniform(lo);
    return std::to_string(lo) + "-" + std::to_string(hi);
  }

  void endpoint(std::vector<std::string>& tokens) {
    tokens.push_back(address());
    if (rng_.bernoulli(0.4)) {
      tokens.push_back("port");
      tokens.push_back(port_spec());
    }
  }

  std::vector<std::string> valid_tokens() {
    std::vector<std::string> t;
    const auto kind = rng_.uniform(10);
    if (kind == 0) {
      t = {"default", pick({"allow", "deny"})};
    } else if (kind == 1) {
      const std::uint64_t max_id = rng_.bernoulli(0.9) ? 100 : 0xffffffffULL;
      const bool good_id = clean_ || rng_.bernoulli(0.5);
      t = {"vpg", good_id ? std::to_string(1 + rng_.uniform(max_id)) : number(), "between"};
      endpoint(t);
      t.push_back("and");
      endpoint(t);
    } else {
      t = {pick({"allow", "deny"}), pick({"any", "tcp", "udp", "icmp"}), "from"};
      endpoint(t);
      t.push_back("to");
      endpoint(t);
      if (rng_.bernoulli(0.3)) t.push_back("oneway");
    }
    return t;
  }

  std::string word() {
    return pick({"allow", "deny", "default", "vpg", "from", "to", "port", "between",
                 "and", "oneway", "any", "tcp", "udp", "icmp", "quic", "frm", "10.0.0.1",
                 "10.0.0.0/8", "1-2", "80", "x", "#", "-", "/", "."});
  }

  void garble(std::string& token) {
    const char alphabet[] = "0123456789./-#xa\t \r";
    const auto at = [&] { return rng_.uniform(token.size() + 1); };
    switch (rng_.uniform(4)) {
      case 0:  // replace a byte
        if (!token.empty()) {
          token[rng_.uniform(token.size())] = alphabet[rng_.uniform(sizeof alphabet - 1)];
        }
        break;
      case 1:  // insert a byte
        token.insert(at(), 1, alphabet[rng_.uniform(sizeof alphabet - 1)]);
        break;
      case 2:  // cut the token short
        token.resize(rng_.uniform(token.size() + 1));
        break;
      default:  // a bad number in place of the token
        token = number();
        break;
    }
  }

  void mutate(std::vector<std::string>& t) {
    const auto index = [&] { return rng_.uniform(t.size()); };
    switch (rng_.uniform(7)) {
      case 0:  // cut the line short
        t.resize(rng_.uniform(t.size() + 1));
        break;
      case 1:  // duplicate a token
        if (!t.empty()) {
          const auto i = index();
          t.insert(t.begin() + static_cast<long>(i), t[i]);
        }
        break;
      case 2:  // drop a token
        if (!t.empty()) t.erase(t.begin() + static_cast<long>(index()));
        break;
      case 3:  // swap two neighbours
        if (t.size() >= 2) {
          const auto i = rng_.uniform(t.size() - 1);
          std::swap(t[i], t[i + 1]);
        }
        break;
      case 4:  // garble one token
        if (!t.empty()) garble(t[index()]);
        break;
      case 5:  // a stray keyword anywhere
        t.insert(t.begin() + static_cast<long>(rng_.uniform(t.size() + 1)), word());
        break;
      default:  // more tokens than any rule has
        while (t.size() < 14 + rng_.uniform(8)) t.push_back(word());
        break;
    }
  }

  sim::Random rng_;
  bool clean_ = true;
};

// 100,000 random lines, each parsed on its own and again inside a policy
// of one to four lines: the one-pass parser and the reference must agree on
// ok(), the error line and message, the default action and every rule
// field. Every error message the parser has must come up.
TEST(PolicyParser, MatchesReferenceOnRandomLines) {
  PolicyLineGenerator gen(0x90110c7);
  auto expect_same = [](const std::string& text) {
    const auto got = parse_policy(text);
    const auto want = testutil::reference::parse_policy(text);
    const std::string diff = testutil::reference::policy_difference(got, want);
    EXPECT_TRUE(diff.empty()) << diff << "\nfor text:\n" << text;
    return diff.empty() ? got : PolicyParseResult{};
  };
  std::map<std::string, int> outcomes;
  int accepted = 0, policies_accepted = 0;
  std::string policy;
  int policy_lines = 0, policies = 0;
  for (int line_no = 0; line_no < 100000; ++line_no) {
    const std::string line = gen.line();
    const auto alone = expect_same(line_no % 3 == 0 ? line : line + "\n");
    if (::testing::Test::HasFailure()) return;
    if (alone.ok()) {
      ++accepted;
    } else {
      // Messages that quote the offending token are counted by their prefix.
      const std::string& m = alone.error->message;
      const std::size_t quote = m.starts_with("expected '") ? m.size() : m.find('\'');
      ++outcomes[m.substr(0, std::min(quote, m.size()))];
    }
    policy += line;
    if (++policy_lines < 1 + policies % 4) {
      policy += '\n';
      continue;
    }
    if (policies % 3 != 0) policy += '\n';
    policies_accepted += expect_same(policy).ok();
    if (::testing::Test::HasFailure()) return;
    ++policies;
    policy.clear();
    policy_lines = 0;
  }
  // Valid and malformed lines, and valid multi-line policies, are common.
  EXPECT_GT(accepted, 30000);
  EXPECT_GT(policies_accepted, 3000);
  for (const char* message :
       {"usage: default allow|deny", "default action must be allow or deny",
        "expected protocol", "unknown protocol ", "expected 'from'", "expected address",
        "bad address ", "bad prefix in ", "expected port number", "bad port ",
        "bad port range ", "port 0 is not allowed in a rule", "expected 'to'",
        "trailing tokens", "expected nonzero vpg id", "expected 'between'",
        "expected 'and'", "unknown directive "}) {
    EXPECT_GT(outcomes[message], 0) << message;
  }
}

}  // namespace
}  // namespace barb::firewall
