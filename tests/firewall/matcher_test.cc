#include "firewall/matcher.h"

#include <gtest/gtest.h>

#include <vector>

#include "core/topology.h"
#include "firewall/nic_firewall.h"
#include "firewall/policy.h"
#include "net/packet_builder.h"
#include "net/vpg_header.h"
#include "sim/simulation.h"
#include "telemetry/registry.h"

namespace barb::firewall {
namespace {

constexpr MatchBackend kAllBackends[] = {
    MatchBackend::kLinear, MatchBackend::kLinearStateful, MatchBackend::kCompiled,
    MatchBackend::kCompiledFlowCache};

// 64 rule units: 63 TCP denies that UDP traffic walks past, then the allow
// for UDP port 80 as the last rule.
RuleSet depth64_policy() {
  std::string text = "default deny\n";
  for (int i = 1; i <= 63; ++i) {
    text += "deny tcp from 192.168.0." + std::to_string(i) + " to 192.168.250.1\n";
  }
  text += "allow udp from any to any port 80\n";
  auto parsed = parse_policy(text);
  EXPECT_TRUE(parsed.ok());
  return *parsed.rule_set;
}

net::FiveTuple udp_tuple(std::uint16_t dst_port) {
  return net::FiveTuple{net::Ipv4Address(10, 0, 0, 1), net::Ipv4Address(10, 0, 0, 40),
                        4000, dst_port, 17};
}

// make_nic labels a card "<host>/<profile name>", with the backend appended
// when it is not linear. The backend is the card's, never the profile's: a
// profile override keeps its own name and takes the NicSpec's backend.
TEST(Matcher, BackendNamesAndProfileSuffixes) {
  EXPECT_STREQ(to_string(MatchBackend::kLinearStateful), "linear+stateful");
  DeviceProfile slow_adf = adf_profile();
  slow_adf.per_rule = sim::Duration::microseconds(5);
  struct Case {
    core::FirewallKind kind;
    MatchBackend backend;
    std::optional<DeviceProfile> profile_override;
    const char* label;
  };
  const Case cases[] = {
      {core::FirewallKind::kEfw, MatchBackend::kLinear, {}, "target/EFW"},
      {core::FirewallKind::kEfw, MatchBackend::kLinearStateful, {}, "target/EFW+stateful"},
      {core::FirewallKind::kAdf, MatchBackend::kCompiled, {}, "target/ADF+compiled"},
      {core::FirewallKind::kAdf, MatchBackend::kCompiledFlowCache, {},
       "target/ADF+flowcache"},
      {core::FirewallKind::kAdf, MatchBackend::kLinearStateful, slow_adf,
       "target/ADF+stateful"},
  };
  sim::Simulation sim(1);
  for (const Case& c : cases) {
    SCOPED_TRACE(c.label);
    core::HostSpec spec;
    spec.name = "target";
    spec.nic.kind = c.kind;
    spec.nic.backend = c.backend;
    spec.nic.profile_override = c.profile_override;
    FirewallNic* card = nullptr;
    const auto nic = core::make_nic(sim, spec, &card);
    ASSERT_NE(card, nullptr);
    EXPECT_EQ(nic->name(), c.label);
    EXPECT_EQ(card->matcher().backend(), c.backend);
    const DeviceProfile want = c.profile_override ? *c.profile_override
                               : c.kind == core::FirewallKind::kEfw ? efw_profile()
                                                                    : adf_profile();
    EXPECT_EQ(card->profile().name, want.name);
    EXPECT_EQ(card->profile().per_rule, want.per_rule);
  }
}

// The cost FloodGuard is sized by: a frame on the backend's slowest path.
TEST(Matcher, WorstCaseCostPerBackend) {
  const DeviceProfile profile = efw_profile();
  for (const MatchBackend backend : kAllBackends) {
    SCOPED_TRACE(to_string(backend));
    Matcher matcher(profile, backend);
    matcher.install(depth64_policy());
    const sim::Duration compiled_walk =
        matcher.compiled() != nullptr
            ? profile.compiled_node * matcher.compiled()->worst_case_nodes()
            : sim::Duration::zero();
    sim::Duration want;
    switch (backend) {
      case MatchBackend::kLinear: want = profile.per_rule * 64; break;
      case MatchBackend::kLinearStateful:
        want = profile.state_lookup + profile.per_rule * 64;
        break;
      case MatchBackend::kCompiled: want = compiled_walk; break;
      case MatchBackend::kCompiledFlowCache:
        want = profile.flow_lookup + profile.flow_insert + compiled_walk;
        break;
    }
    EXPECT_EQ(matcher.worst_case_cost(), want);
  }
}

// A stateful card pays the state probe on every miss, and a spoofed flood
// misses on every frame, so FloodGuard must size a stateful card below a
// stateless one.
TEST(Matcher, FloodGuardSizingPaysTheStateProbe) {
  const DeviceProfile profile = efw_profile();
  const FloodGuardConfig guard;
  for (const MatchBackend backend : {MatchBackend::kLinear, MatchBackend::kLinearStateful}) {
    SCOPED_TRACE(to_string(backend));
    sim::Simulation sim(1);
    FirewallNic nic(sim, net::MacAddress::from_host_id(40), "fw", profile, backend);
    nic.install_rule_set(depth64_policy());
    nic.enable_flood_guard(guard);
    ASSERT_NE(nic.flood_guard(), nullptr);

    sim::Duration frame = profile.arrival_overhead + profile.fixed + profile.per_byte * 60 +
                          profile.per_rule * 64;
    if (backend == MatchBackend::kLinearStateful) frame += profile.state_lookup;
    const double capacity = 1.0 / frame.to_seconds();
    EXPECT_DOUBLE_EQ(nic.flood_guard()->effective_aggregate_rate(),
                     capacity * guard.aggregate_capacity_share);
    EXPECT_DOUBLE_EQ(nic.flood_guard()->effective_per_source_rate(),
                     capacity * guard.per_source_capacity_share);
    // The readings: 124.88 us per stateless frame, 125.88 us per stateful one.
    const bool stateful = backend == MatchBackend::kLinearStateful;
    EXPECT_NEAR(nic.flood_guard()->effective_aggregate_rate(), stateful ? 6752.5 : 6806.5,
                0.05);
    EXPECT_NEAR(nic.flood_guard()->effective_per_source_rate(),
                stateful ? 4369.2 : 4404.2, 0.05);
  }
}

TEST(Matcher, StatefulHitsSkipTheWalkUntilFlowsAreForgotten) {
  const DeviceProfile profile = adf_profile();
  Matcher matcher(profile, MatchBackend::kLinearStateful);
  ASSERT_NE(matcher.flow_states(), nullptr);
  const FlowStateTable& states = *matcher.flow_states();
  matcher.install(depth64_policy());
  const sim::TimePoint now;
  const net::FiveTuple flow = udp_tuple(80);

  sim::Duration service;
  MatchResult mr = matcher.classify(flow, now, &service);
  EXPECT_EQ(mr.action, RuleAction::kAllow);
  EXPECT_EQ(mr.rules_traversed, 64);
  EXPECT_EQ(service, profile.state_lookup + profile.per_rule * 64);

  // Both directions of the admitted flow now hit: allow, no walk.
  for (const net::FiveTuple& t : {flow, flow.reversed()}) {
    service = sim::Duration::zero();
    mr = matcher.classify(t, now, &service);
    EXPECT_EQ(mr.action, RuleAction::kAllow);
    EXPECT_EQ(mr.rules_traversed, 0);
    EXPECT_EQ(service, profile.state_lookup);
  }

  // A denied flow is never admitted.
  for (int i = 0; i < 2; ++i) {
    service = sim::Duration::zero();
    mr = matcher.classify(udp_tuple(81), now, &service);
    EXPECT_EQ(mr.action, RuleAction::kDeny);
    EXPECT_EQ(service, profile.state_lookup + profile.per_rule * 64);
  }
  EXPECT_EQ(states.size(), 1u);

  matcher.forget_flows();
  EXPECT_EQ(states.size(), 0u);
  service = sim::Duration::zero();
  EXPECT_EQ(matcher.classify(flow, now, &service).rules_traversed, 64);
  matcher.install(depth64_policy());
  EXPECT_EQ(states.size(), 0u);
}

// Each backend holds exactly the tables it uses: the linear one its rules
// alone, the stateful one a flow-state table, the compiled ones the compiled
// structure, and the flow-cache one a flow cache in front of it. Only the
// compiled backends register "match.*" metrics, and only the flow-cache one
// its "match.flow_*" block.
TEST(Matcher, EachBackendTouchesOnlyItsOwnTables) {
  for (const MatchBackend backend : kAllBackends) {
    SCOPED_TRACE(to_string(backend));
    const bool compiled = backend == MatchBackend::kCompiled ||
                          backend == MatchBackend::kCompiledFlowCache;
    const bool cached = backend == MatchBackend::kCompiledFlowCache;
    const bool stateful = backend == MatchBackend::kLinearStateful;
    Matcher matcher(adf_profile(), backend);
    telemetry::MetricRegistry registry;
    matcher.register_metrics(registry, "fw=test");
    matcher.install(depth64_policy());
    sim::Duration service;
    for (int i = 0; i < 3; ++i) matcher.classify(udp_tuple(80), sim::TimePoint(), &service);

    ASSERT_EQ(matcher.compiled() != nullptr, compiled);
    ASSERT_EQ(matcher.flow_cache() != nullptr, cached);
    ASSERT_EQ(matcher.flow_states() != nullptr, stateful);
    EXPECT_EQ(registry.find("match.lookups", "fw=test") != nullptr, compiled);
    EXPECT_EQ(registry.find("match.flow_lookups", "fw=test") != nullptr, cached);
    EXPECT_EQ(matcher.stats().lookups, compiled ? 3u : 0u);
    EXPECT_EQ(matcher.stats().rebuilds, compiled ? 1u : 0u);
    std::size_t table_bytes = 0;
    if (compiled) {
      EXPECT_EQ(matcher.compiled()->stats().rules, 64u);
      table_bytes += sizeof(CompiledClassifier) + matcher.compiled()->memory_bytes();
    }
    if (cached) {
      EXPECT_EQ(matcher.flow_cache()->stats().lookups, 3u);
      EXPECT_EQ(matcher.flow_cache()->stats().hits, 2u);
      table_bytes += sizeof(FlowCache) + matcher.flow_cache()->memory_bytes();
    }
    if (stateful) {
      EXPECT_EQ(matcher.flow_states()->size(), 1u);
      table_bytes += sizeof(FlowStateTable) + matcher.flow_states()->memory_bytes();
    }
    // A linear matcher's footprint is its rules'.
    EXPECT_EQ(table_bytes == 0, backend == MatchBackend::kLinear);
    EXPECT_EQ(matcher.memory_bytes(), matcher.rules().memory_bytes() + table_bytes);
  }
}

// VPG frames match by id and tuple-less frames take the default: neither
// enters a flow table on any backend, and every backend agrees with the
// rule set.
TEST(Matcher, VpgAndTuplelessFramesBypassTheFlowTables) {
  RuleSet rules = depth64_policy();
  Rule vpg;
  vpg.action = RuleAction::kVpg;
  vpg.vpg_id = 7;
  rules.add(vpg);

  net::IpEndpoints ep;
  ep.src_ip = net::Ipv4Address(10, 0, 0, 30);
  ep.dst_ip = net::Ipv4Address(10, 0, 0, 40);
  ep.src_mac = net::MacAddress::from_host_id(30);
  ep.dst_mac = net::MacAddress::from_host_id(40);
  net::VpgHeader header;
  header.vpg_id = 7;
  header.orig_protocol = 17;
  header.payload_len = net::VpgHeader::kTagSize;
  std::vector<std::uint8_t> sealed(net::VpgHeader::kSize + header.payload_len);
  header.write(std::span(sealed).first<net::VpgHeader::kSize>());
  // A non-IP frame (local experimental EtherType) has no five-tuple.
  std::vector<std::uint8_t> non_ip(60, 0);
  non_ip[12] = 0x88;
  non_ip[13] = 0xb5;
  const std::vector<std::uint8_t> frames[] = {
      net::build_ipv4_frame(ep, net::IpProtocol::kVpg, sealed), non_ip};

  for (const MatchBackend backend : kAllBackends) {
    SCOPED_TRACE(to_string(backend));
    Matcher matcher(adf_profile(), backend);
    matcher.install(rules);
    for (const auto& bytes : frames) {
      const auto view = net::FrameView::parse(bytes);
      ASSERT_TRUE(view.has_value());
      const auto tuple = view->five_tuple();
      for (int i = 0; i < 2; ++i) {
        sim::Duration service;
        const MatchResult got = matcher.classify(*view, tuple, sim::TimePoint(), &service);
        const MatchResult want = rules.match(*view);
        EXPECT_EQ(got.action, want.action);
        EXPECT_EQ(got.matched_index, want.matched_index);
        EXPECT_EQ(got.rules_traversed, want.rules_traversed);
      }
    }
    if (const FlowCache* cache = matcher.flow_cache()) {
      EXPECT_EQ(cache->stats().lookups, 0u);
    }
    if (const FlowStateTable* states = matcher.flow_states()) {
      EXPECT_EQ(states->size(), 0u);
    }
  }
}

}  // namespace
}  // namespace barb::firewall
