#include "firewall/matcher.h"

#include <utility>

namespace barb::firewall {

Matcher::Matcher(const DeviceProfile& profile)
    : backend_(profile.match_backend),
      per_rule_(profile.per_rule),
      state_lookup_(profile.state_lookup),
      compiled_node_(profile.compiled_node),
      flow_lookup_(profile.flow_lookup),
      flow_insert_(profile.flow_insert),
      flow_cache_(FlowCacheConfig{profile.flow_cache_capacity}) {
  rules_.set_default_action(RuleAction::kAllow);
  // The compiled structure must always mirror rules_, including the initial
  // unconfigured (empty, default-allow) policy.
  if (compiled_backend()) compiled_.rebuild(rules_);
}

void Matcher::install(RuleSet rules) {
  rules_ = std::move(rules);
  flow_states_.clear();  // old verdicts may no longer be valid
  if (compiled_backend()) {
    compiled_.rebuild(rules_);
    flow_cache_.bump_generation();
    ++stats_.rebuilds;
  }
}

void Matcher::forget_flows() {
  flow_states_.clear();
  flow_cache_.bump_generation();
}

template <typename Key>
MatchResult Matcher::walk(const Key& key, sim::Duration* service) {
  if (!compiled_backend()) {
    const MatchResult mr = rules_.match(key);
    *service += per_rule_ * static_cast<std::int64_t>(mr.rules_traversed);
    return mr;
  }
  // Verdicts are bit-identical to the linear walk; only the cost differs.
  const CompiledMatch cm = compiled_.match(key);
  *service += compiled_node_ * static_cast<std::int64_t>(cm.nodes);
  stats_.compiled_nodes += static_cast<std::uint64_t>(cm.nodes);
  return cm.result;
}

MatchResult Matcher::classify(const net::FrameView& view,
                              const std::optional<net::FiveTuple>& tuple,
                              sim::TimePoint now, sim::Duration* service) {
  if (tuple && !view.vpg) return classify(*tuple, now, service);
  if (compiled_backend()) ++stats_.lookups;
  return walk(view, service);
}

MatchResult Matcher::classify(const net::FiveTuple& tuple, sim::TimePoint now,
                              sim::Duration* service) {
  switch (backend_) {
    case MatchBackend::kLinear:
      return walk(tuple, service);
    case MatchBackend::kLinearStateful: {
      *service += state_lookup_;
      if (flow_states_.lookup(tuple, now)) {
        MatchResult established;
        established.action = RuleAction::kAllow;
        return established;
      }
      const MatchResult mr = walk(tuple, service);
      if (mr.action == RuleAction::kAllow) flow_states_.insert(tuple, now);
      return mr;
    }
    case MatchBackend::kCompiled:
      ++stats_.lookups;
      return walk(tuple, service);
    case MatchBackend::kCompiledFlowCache: {
      ++stats_.lookups;
      *service += flow_lookup_;
      MatchResult cached;
      if (flow_cache_.lookup(tuple, &cached)) return cached;
      const MatchResult mr = walk(tuple, service);
      *service += flow_insert_;
      flow_cache_.insert(tuple, mr);
      return mr;
    }
  }
  return walk(tuple, service);
}

sim::Duration Matcher::worst_case_cost() const {
  const sim::Duration rule_walk = per_rule_ * rules_.total_cost_units();
  const sim::Duration compiled_walk = compiled_node_ * compiled_.worst_case_nodes();
  switch (backend_) {
    case MatchBackend::kLinear: return rule_walk;
    case MatchBackend::kLinearStateful: return state_lookup_ + rule_walk;
    case MatchBackend::kCompiled: return compiled_walk;
    case MatchBackend::kCompiledFlowCache:
      return flow_lookup_ + flow_insert_ + compiled_walk;
  }
  return rule_walk;
}

void Matcher::register_metrics(telemetry::MetricRegistry& registry,
                               const std::string& labels) {
  if (!compiled_backend()) return;
  auto match_counter = [&](const char* name, const std::uint64_t* field) {
    registry.counter_fn(name, labels,
                        [field] { return static_cast<double>(*field); });
  };
  match_counter("match.lookups", &stats_.lookups);
  match_counter("match.compiled_nodes", &stats_.compiled_nodes);
  match_counter("match.rebuilds", &stats_.rebuilds);
  auto cache_counter = [&](const char* name, std::uint64_t FlowCacheStats::* field) {
    registry.counter_fn(name, labels, [this, field] {
      return static_cast<double>(flow_cache_.stats().*field);
    });
  };
  cache_counter("match.flow_lookups", &FlowCacheStats::lookups);
  cache_counter("match.flow_hits", &FlowCacheStats::hits);
  cache_counter("match.flow_misses", &FlowCacheStats::misses);
  cache_counter("match.flow_inserts", &FlowCacheStats::inserts);
  cache_counter("match.flow_evictions", &FlowCacheStats::evictions);
  cache_counter("match.flow_stale_hits", &FlowCacheStats::stale_hits);
  cache_counter("match.flow_invalidations", &FlowCacheStats::invalidations);
  registry.gauge("match.flow_live_entries", labels, [this] {
    return static_cast<double>(flow_cache_.live_entries());
  });
  registry.gauge("match.compiled_memory_bytes", labels, [this] {
    return static_cast<double>(compiled_.stats().memory_bytes);
  });
}

std::size_t Matcher::memory_bytes() const {
  return rules_.memory_bytes() + compiled_.memory_bytes() + flow_cache_.memory_bytes() +
         flow_states_.memory_bytes();
}

}  // namespace barb::firewall
