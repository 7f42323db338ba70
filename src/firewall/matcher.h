// The card's classification: one rule set behind one configured backend.
//
// A Matcher owns everything a frame's verdict depends on — the installed
// rule set and whichever of the compiled classifier, the flow cache and the
// flow-state table its backend uses — together with the backend's cost
// model, so the backend dispatch exists once. The backend is fixed at
// construction, and a table its backend never uses is never created: a
// linear card holds its rule set and nothing else. Verdicts are the rule
// set's first-match verdicts on every backend except kLinearStateful, whose
// state hits allow the established flows (replies included) without
// consulting the rules. The backends differ in the service time they charge:
//
//  * kLinear: `per_rule` per rule unit walked;
//  * kLinearStateful: `state_lookup` per cleartext frame; a miss also walks
//    the rules, and an allow verdict admits the flow;
//  * kCompiled: `compiled_node` per decision node visited;
//  * kCompiledFlowCache: `flow_lookup` per cleartext frame; a miss also
//    walks the compiled structure and pays `flow_insert` to cache the
//    verdict.
//
// VPG-encapsulated frames and frames without a five-tuple never touch the
// flow tables: their match is by id, or the default action.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "firewall/classifier/compiled_classifier.h"
#include "firewall/classifier/flow_cache.h"
#include "firewall/flow_state.h"
#include "firewall/profiles.h"
#include "firewall/rule_set.h"
#include "net/five_tuple.h"
#include "net/frame_view.h"
#include "sim/time.h"
#include "telemetry/registry.h"

namespace barb::firewall {

// Compiled-backend matching counters ("match.*" when registered). Flow-cache
// hit/miss/eviction counts live in FlowCache::stats().
struct MatchPathStats {
  std::uint64_t lookups = 0;         // classifications (cache hits included)
  std::uint64_t compiled_nodes = 0;  // decision-structure nodes visited
  std::uint64_t rebuilds = 0;        // compiled rebuilds (policy pushes)
};

class Matcher {
 public:
  // Runs `backend` with the cost constants and the flow-cache capacity of
  // `profile`, creating only the tables that backend uses. The initial rule
  // set is empty with default allow: an unconfigured card passes traffic.
  Matcher(const DeviceProfile& profile, MatchBackend backend);

  // Policy push. Clears the flow-state table; on the compiled backends it
  // also rebuilds the compiled structure and bumps the flow-cache
  // generation, so no verdict of the previous rule set survives.
  void install(RuleSet rules);

  // Card reset: flow state and cached verdicts are lost, the installed rule
  // set (and its compiled structure) survives.
  void forget_flows();

  // Verdict for one frame, adding the backend's match cost to *service.
  // `tuple` is the frame's five-tuple as the packet caches it.
  MatchResult classify(const net::FrameView& view,
                       const std::optional<net::FiveTuple>& tuple,
                       sim::TimePoint now, sim::Duration* service);
  // The same for a cleartext five-tuple.
  MatchResult classify(const net::FiveTuple& tuple, sim::TimePoint now,
                       sim::Duration* service);

  // Match cost of a frame that takes the backend's slowest path: a full
  // rule walk after a state miss, or a worst-case compiled walk after a
  // cache miss (a spoofed flood misses every time). FloodGuard is sized by
  // it.
  sim::Duration worst_case_cost() const;

  // Registers the "match.*" counters and gauges: the compiled backends'
  // set, plus the "match.flow_*" block when the flow cache exists. The
  // linear backends register none, so their metric sets (every paper
  // figure's) stay as they were before the compiled backends existed.
  void register_metrics(telemetry::MetricRegistry& registry,
                        const std::string& labels);

  // Heap held: the rules, and each table the backend created (object and
  // storage).
  std::size_t memory_bytes() const;

  MatchBackend backend() const { return backend_; }
  const RuleSet& rules() const { return rules_; }
  // The backend's tables; null where the backend does not use one.
  const CompiledClassifier* compiled() const { return compiled_.get(); }
  const FlowCache* flow_cache() const { return flow_cache_.get(); }
  const FlowStateTable* flow_states() const { return flow_states_.get(); }
  const MatchPathStats& stats() const { return stats_; }

 private:
  // One walk of the backend's structure (the rule list, or the compiled
  // classifier) over a frame or a tuple, charged to *service.
  template <typename Key>
  MatchResult walk(const Key& key, sim::Duration* service);

  MatchBackend backend_;
  sim::Duration per_rule_;
  sim::Duration state_lookup_;
  sim::Duration compiled_node_;
  sim::Duration flow_lookup_;
  sim::Duration flow_insert_;

  RuleSet rules_;
  std::unique_ptr<CompiledClassifier> compiled_;  // compiled backends only
  std::unique_ptr<FlowCache> flow_cache_;         // kCompiledFlowCache only
  std::unique_ptr<FlowStateTable> flow_states_;   // kLinearStateful only
  MatchPathStats stats_;
};

}  // namespace barb::firewall
