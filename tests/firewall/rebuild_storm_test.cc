// Rebuild storm: repeated policy re-push against the compiled backends.
// The contract under test: after a generation bump no stale verdict is ever
// served, and the rebuild / invalidation / stale counters reconcile exactly.
#include <gtest/gtest.h>

#include <unordered_set>

#include "firewall/matcher.h"
#include "firewall/nic_firewall.h"
#include "firewall/policy.h"
#include "firewall/policygen/policy_corpus.h"
#include "link/link.h"
#include "net/packet_builder.h"
#include "sim/simulation.h"

namespace barb::firewall {
namespace {

bool same_match(const MatchResult& a, const MatchResult& b) {
  return a.action == b.action && a.matched_index == b.matched_index &&
         a.rules_traversed == b.rules_traversed &&
         a.vpg_rules_traversed == b.vpg_rules_traversed && a.vpg_id == b.vpg_id;
}

TEST(RebuildStorm, NoStaleVerdictSurvivesGenerationBump) {
  // 24 policy pushes of generated corpora through one card matcher per
  // compiled backend. After each push, every tuple classified under the
  // previous policy must miss the cache, and every verdict must be exactly
  // the current policy's.
  for (const MatchBackend backend :
       {MatchBackend::kCompiled, MatchBackend::kCompiledFlowCache}) {
    SCOPED_TRACE(to_string(backend));
    policygen::PolicyCorpusGenerator gen(123);
    DeviceProfile profile = adf_profile();
    profile.flow_cache_capacity = 256;  // small, so the storm evicts
    Matcher matcher(profile, backend);
    // The compiled backend never caches, so it holds no cache.
    const FlowCache* cache = matcher.flow_cache();
    ASSERT_EQ(cache != nullptr, backend == MatchBackend::kCompiledFlowCache);
    auto cache_hits = [cache] { return cache != nullptr ? cache->stats().hits : 0; };
    RuleSet current;
    std::unordered_set<net::FiveTuple> seen_this_gen;
    sim::Duration service;

    for (int push = 0; push < 24; ++push) {
      policygen::CorpusSpec spec;
      spec.rules = 40 + push * 5;
      current = gen.generate(spec).rules;
      matcher.install(current);

      const std::uint64_t hits_before = cache_hits();
      for (const auto& t : seen_this_gen) {
        EXPECT_TRUE(same_match(matcher.classify(t, sim::TimePoint(), &service),
                               current.match(t)))
            << "wrong verdict after push " << push << " for " << t.to_string();
      }
      EXPECT_EQ(cache_hits(), hits_before)
          << "stale verdict served after push " << push;
      seen_this_gen.clear();

      for (int i = 0; i < 400; ++i) {
        const net::FiveTuple t = gen.random_universe_tuple();
        const MatchResult want = current.match(t);
        // The compiled structure the cache fronts must agree with the linear
        // walk on its own: a mismatch here names the classifier, not the
        // cache.
        ASSERT_TRUE(same_match(matcher.compiled()->match(t).result, want));
        EXPECT_TRUE(same_match(matcher.classify(t, sim::TimePoint(), &service), want))
            << "push " << push << " " << t.to_string();
        seen_this_gen.insert(t);
      }
    }

    EXPECT_EQ(matcher.stats().rebuilds, 24u);
    if (cache != nullptr) {
      const FlowCacheStats& st = cache->stats();
      EXPECT_EQ(st.lookups, st.hits + st.misses);  // every lookup is one or the other
      EXPECT_LE(st.stale_hits, st.misses);         // stale hits are (counted) misses
      EXPECT_LE(cache->live_entries(), cache->capacity());
      EXPECT_EQ(st.invalidations, 24u);
      EXPECT_GT(st.stale_hits, 0u) << "storm never exercised the stale path";
      EXPECT_GT(st.evictions, 0u) << "storm never evicted";
    }
  }
}

TEST(RebuildStorm, NicCountersReconcileAndVerdictsFlip) {
  // End-to-end through the NIC: alternate an allow-port-80 policy with a
  // deny-everything policy, pushing the same flow's frames through both.
  // ADF profile (no deny-flood latch) with the flow-cache backend.
  sim::Simulation sim(1);
  link::LinkConfig link_cfg;
  link_cfg.queue_bytes = 1024 * 1024;
  link::Link link(sim, link_cfg);
  FirewallNic nic(sim, net::MacAddress::from_host_id(40), "fw", adf_profile(),
                  MatchBackend::kCompiledFlowCache);
  struct Collector : link::FrameSink {
    std::vector<net::Packet> frames;
    void deliver(net::Packet pkt) override { frames.push_back(std::move(pkt)); }
  } host_side, wire_side;
  nic.attach(link.b());
  nic.set_host_sink(&host_side);
  link.a().connect_sink(&wire_side);

  const auto install = [&nic](const char* policy) {
    auto parsed = parse_policy(policy);
    ASSERT_TRUE(parsed.ok());
    nic.install_rule_set(std::move(*parsed.rule_set));
  };
  const auto send_flow_frame = [&] {
    net::IpEndpoints ep;
    ep.src_ip = net::Ipv4Address(10, 0, 0, 1);
    ep.dst_ip = net::Ipv4Address(10, 0, 0, 40);
    ep.src_mac = net::MacAddress::from_host_id(1);
    ep.dst_mac = net::MacAddress::from_host_id(40);
    const std::vector<std::uint8_t> payload(10, 0x42);
    link.a().send(net::Packet{net::build_udp_frame(ep, 4000, 80, payload), sim.now(), 0});
  };

  std::uint64_t pushes = 0;
  std::size_t expected_delivered = 0;
  for (int round = 0; round < 25; ++round) {
    install("default deny\nallow udp from any to any port 80\n");
    ++pushes;
    for (int i = 0; i < 3; ++i) send_flow_frame();
    sim.run();
    expected_delivered += 3;
    ASSERT_EQ(host_side.frames.size(), expected_delivered)
        << "allowed frame lost after push " << pushes;

    install("default deny\n");
    ++pushes;
    for (int i = 0; i < 3; ++i) send_flow_frame();
    sim.run();
    // The cache held an "allow" verdict for this exact tuple one push ago:
    // a stale hit here would leak the frame to the host.
    ASSERT_EQ(host_side.frames.size(), expected_delivered)
        << "stale allow verdict leaked after push " << pushes;
  }

  EXPECT_EQ(nic.fw_stats().rx_denied, 75u);
  EXPECT_EQ(nic.matcher().stats().rebuilds, pushes);
  const FlowCacheStats& st = nic.matcher().flow_cache()->stats();
  EXPECT_EQ(st.invalidations, pushes);  // one generation bump per push
  EXPECT_EQ(st.lookups, st.hits + st.misses);
  EXPECT_GT(st.stale_hits, 0u);
  EXPECT_LE(st.stale_hits, st.misses);
  // Same tuple re-pushed every round: two of each round's three frames hit.
  EXPECT_GE(st.hits, 100u);
}

}  // namespace
}  // namespace barb::firewall
