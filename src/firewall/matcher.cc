#include "firewall/matcher.h"

#include <utility>

#include "util/heap_bytes.h"

namespace barb::firewall {

Matcher::Matcher(const DeviceProfile& profile, MatchBackend backend)
    : backend_(backend),
      per_rule_(profile.per_rule),
      state_lookup_(profile.state_lookup),
      compiled_node_(profile.compiled_node),
      flow_lookup_(profile.flow_lookup),
      flow_insert_(profile.flow_insert) {
  rules_.set_default_action(RuleAction::kAllow);
  switch (backend_) {
    case MatchBackend::kLinear:
      break;
    case MatchBackend::kLinearStateful:
      flow_states_ = std::make_unique<FlowStateTable>();
      break;
    case MatchBackend::kCompiledFlowCache:
      flow_cache_ =
          std::make_unique<FlowCache>(FlowCacheConfig{profile.flow_cache_capacity});
      [[fallthrough]];
    case MatchBackend::kCompiled:
      // The compiled structure must always mirror rules_, including the
      // initial unconfigured (empty, default-allow) policy.
      compiled_ = std::make_unique<CompiledClassifier>();
      compiled_->rebuild(rules_);
      break;
  }
}

void Matcher::install(RuleSet rules) {
  rules_ = std::move(rules);
  if (flow_states_) flow_states_->clear();  // old verdicts may no longer be valid
  if (compiled_) {
    compiled_->rebuild(rules_);
    if (flow_cache_) flow_cache_->bump_generation();
    ++stats_.rebuilds;
  }
}

void Matcher::forget_flows() {
  if (flow_states_) flow_states_->clear();
  if (flow_cache_) flow_cache_->bump_generation();
}

template <typename Key>
MatchResult Matcher::walk(const Key& key, sim::Duration* service) {
  if (!compiled_) {
    const MatchResult mr = rules_.match(key);
    *service += per_rule_ * static_cast<std::int64_t>(mr.rules_traversed);
    return mr;
  }
  // Verdicts are bit-identical to the linear walk; only the cost differs.
  const CompiledMatch cm = compiled_->match(key);
  *service += compiled_node_ * static_cast<std::int64_t>(cm.nodes);
  stats_.compiled_nodes += static_cast<std::uint64_t>(cm.nodes);
  return cm.result;
}

MatchResult Matcher::classify(const net::FrameView& view,
                              const std::optional<net::FiveTuple>& tuple,
                              sim::TimePoint now, sim::Duration* service) {
  if (tuple && !view.vpg) return classify(*tuple, now, service);
  if (compiled_) ++stats_.lookups;
  return walk(view, service);
}

MatchResult Matcher::classify(const net::FiveTuple& tuple, sim::TimePoint now,
                              sim::Duration* service) {
  switch (backend_) {
    case MatchBackend::kLinear:
      return walk(tuple, service);
    case MatchBackend::kLinearStateful: {
      *service += state_lookup_;
      if (flow_states_->lookup(tuple, now)) {
        MatchResult established;
        established.action = RuleAction::kAllow;
        return established;
      }
      const MatchResult mr = walk(tuple, service);
      if (mr.action == RuleAction::kAllow) flow_states_->insert(tuple, now);
      return mr;
    }
    case MatchBackend::kCompiled:
      ++stats_.lookups;
      return walk(tuple, service);
    case MatchBackend::kCompiledFlowCache: {
      ++stats_.lookups;
      *service += flow_lookup_;
      MatchResult cached;
      if (flow_cache_->lookup(tuple, &cached)) return cached;
      const MatchResult mr = walk(tuple, service);
      *service += flow_insert_;
      flow_cache_->insert(tuple, mr);
      return mr;
    }
  }
  return walk(tuple, service);
}

sim::Duration Matcher::worst_case_cost() const {
  if (compiled_) {
    const sim::Duration compiled_walk = compiled_node_ * compiled_->worst_case_nodes();
    return flow_cache_ ? flow_lookup_ + flow_insert_ + compiled_walk : compiled_walk;
  }
  const sim::Duration rule_walk = per_rule_ * rules_.total_cost_units();
  return flow_states_ ? state_lookup_ + rule_walk : rule_walk;
}

void Matcher::register_metrics(telemetry::MetricRegistry& registry,
                               const std::string& labels) {
  if (!compiled_) return;
  auto match_counter = [&](const char* name, const std::uint64_t* field) {
    registry.counter_fn(name, labels,
                        [field] { return static_cast<double>(*field); });
  };
  match_counter("match.lookups", &stats_.lookups);
  match_counter("match.compiled_nodes", &stats_.compiled_nodes);
  match_counter("match.rebuilds", &stats_.rebuilds);
  if (const FlowCache* cache = flow_cache_.get()) {
    auto cache_counter = [&](const char* name, std::uint64_t FlowCacheStats::* field) {
      registry.counter_fn(name, labels, [cache, field] {
        return static_cast<double>(cache->stats().*field);
      });
    };
    cache_counter("match.flow_lookups", &FlowCacheStats::lookups);
    cache_counter("match.flow_hits", &FlowCacheStats::hits);
    cache_counter("match.flow_misses", &FlowCacheStats::misses);
    cache_counter("match.flow_inserts", &FlowCacheStats::inserts);
    cache_counter("match.flow_evictions", &FlowCacheStats::evictions);
    cache_counter("match.flow_stale_hits", &FlowCacheStats::stale_hits);
    cache_counter("match.flow_invalidations", &FlowCacheStats::invalidations);
    registry.gauge("match.flow_live_entries", labels, [cache] {
      return static_cast<double>(cache->live_entries());
    });
  }
  registry.gauge("match.compiled_memory_bytes", labels,
                 [compiled = compiled_.get()] {
                   return static_cast<double>(compiled->stats().memory_bytes);
                 });
}

std::size_t Matcher::memory_bytes() const {
  return rules_.memory_bytes() + util::heap_bytes(compiled_) +
         util::heap_bytes(flow_cache_) + util::heap_bytes(flow_states_);
}

}  // namespace barb::firewall
