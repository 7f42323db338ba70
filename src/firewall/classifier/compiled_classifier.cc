#include "firewall/classifier/compiled_classifier.h"

#include <algorithm>
#include <bit>

#include "util/heap_bytes.h"

namespace barb::firewall {

namespace {

// Closed value range for one field of one directed entry. lo > hi encodes
// "matches nothing" (an explicitly empty PortRange like {5,0}).
struct Range {
  std::uint32_t lo = 0;
  std::uint32_t hi = 0;
  bool empty() const { return lo > hi; }
};

struct DirectedEntry {
  Range field[5];  // proto, src, dst, sport, dport
};

Range proto_range(std::uint8_t protocol) {
  if (protocol == 0) return {0, 0xff};
  return {protocol, protocol};
}

Range prefix_range(net::Ipv4Address net, int prefix) {
  if (prefix <= 0) return {0, 0xffffffffu};
  const std::uint32_t mask =
      prefix >= 32 ? 0xffffffffu : ~((std::uint32_t{1} << (32 - prefix)) - 1);
  const std::uint32_t base = net.value() & mask;
  return {base, base | ~mask};
}

Range port_range(const PortRange& p) {
  if (p.any()) return {0, 0xffff};
  return {p.lo, p.hi};  // lo > hi stays an empty range, matching contains()
}

DirectedEntry forward_entry(const Rule& r) {
  DirectedEntry e;
  e.field[0] = proto_range(r.protocol);
  e.field[1] = prefix_range(r.src_net, r.src_prefix);
  e.field[2] = prefix_range(r.dst_net, r.dst_prefix);
  e.field[3] = port_range(r.src_ports);
  e.field[4] = port_range(r.dst_ports);
  return e;
}

// The reversed tuple matched against the rule's selectors is equivalent to
// matching the original tuple against swapped selectors.
DirectedEntry reversed_entry(const Rule& r) {
  DirectedEntry e;
  e.field[0] = proto_range(r.protocol);
  e.field[1] = prefix_range(r.dst_net, r.dst_prefix);
  e.field[2] = prefix_range(r.src_net, r.src_prefix);
  e.field[3] = port_range(r.dst_ports);
  e.field[4] = port_range(r.src_ports);
  return e;
}

int ceil_log2(std::size_t n) {
  int depth = 1;
  while ((std::size_t{1} << depth) < n) ++depth;
  return depth;
}

}  // namespace

void CompiledClassifier::rebuild(const RuleSet& rules) {
  const auto& list = rules.rules();
  default_action_ = rules.default_action();

  entry_rule_.clear();
  rule_action_.clear();
  rule_vpg_id_.clear();
  cost_prefix_.assign(1, 0);
  vpg_prefix_.assign(1, 0);
  vpg_index_.clear();

  std::vector<DirectedEntry> entries;
  for (std::size_t i = 0; i < list.size(); ++i) {
    const Rule& r = list[i];
    rule_action_.push_back(r.action);
    rule_vpg_id_.push_back(r.vpg_id);
    cost_prefix_.push_back(cost_prefix_.back() + r.cost_units());
    vpg_prefix_.push_back(vpg_prefix_.back() +
                          (r.action == RuleAction::kVpg ? 1 : 0));
    if (r.action == RuleAction::kVpg) {
      vpg_index_.try_emplace(r.vpg_id, static_cast<int>(i));
    }
    entries.push_back(forward_entry(r));
    entry_rule_.push_back(static_cast<int>(i));
    if (r.bidirectional) {
      entries.push_back(reversed_entry(r));
      entry_rule_.push_back(static_cast<int>(i));
    }
  }

  words_ = (entries.size() + 63) / 64;
  std::size_t total_intervals = 0;
  std::size_t memory = 0;
  for (int f = 0; f < 5; ++f) {
    FieldTable& ft = fields_[f];
    ft.boundaries.assign(1, 0);
    for (const auto& e : entries) {
      const Range& r = e.field[f];
      if (r.empty()) continue;
      ft.boundaries.push_back(r.lo);
      if (r.hi != 0xffffffffu) ft.boundaries.push_back(r.hi + 1);
    }
    std::sort(ft.boundaries.begin(), ft.boundaries.end());
    ft.boundaries.erase(std::unique(ft.boundaries.begin(), ft.boundaries.end()),
                        ft.boundaries.end());
    const std::size_t intervals = ft.boundaries.size();
    ft.search_depth = ceil_log2(intervals);
    ft.bits.assign(intervals * words_, 0);
    for (std::size_t e = 0; e < entries.size(); ++e) {
      const Range& r = entries[e].field[f];
      if (r.empty()) continue;
      // Intervals covered by [lo, hi]: from the interval starting at lo
      // (lo is a boundary by construction) up to the last with start <= hi.
      const auto first = std::lower_bound(ft.boundaries.begin(),
                                          ft.boundaries.end(), r.lo);
      auto last = std::upper_bound(ft.boundaries.begin(), ft.boundaries.end(),
                                   r.hi);
      const std::size_t j0 =
          static_cast<std::size_t>(first - ft.boundaries.begin());
      const std::size_t j1 =
          static_cast<std::size_t>(last - ft.boundaries.begin());  // exclusive
      for (std::size_t j = j0; j < j1; ++j) {
        ft.bits[j * words_ + e / 64] |= std::uint64_t{1} << (e % 64);
      }
    }
    total_intervals += intervals;
    memory += ft.boundaries.size() * sizeof(std::uint32_t) +
              ft.bits.size() * sizeof(std::uint64_t);
  }

  ++stats_.rebuilds;
  stats_.rules = list.size();
  stats_.entries = entries.size();
  stats_.intervals = total_intervals;
  stats_.memory_bytes = memory;
}

const std::uint64_t* CompiledClassifier::FieldTable::row(
    std::uint32_t value, std::size_t words) const {
  // Index of the last boundary <= value; boundaries[0] == 0 guarantees one.
  const auto it =
      std::upper_bound(boundaries.begin(), boundaries.end(), value) - 1;
  const std::size_t j = static_cast<std::size_t>(it - boundaries.begin());
  return bits.data() + j * words;
}

CompiledMatch CompiledClassifier::make_result(int entry_bit) const {
  return make_result_for_rule(entry_rule_[static_cast<std::size_t>(entry_bit)]);
}

CompiledMatch CompiledClassifier::make_result_for_rule(int rule) const {
  CompiledMatch m;
  m.result.action = rule_action_[static_cast<std::size_t>(rule)];
  m.result.vpg_id = rule_vpg_id_[static_cast<std::size_t>(rule)];
  m.result.matched_index = rule;
  m.result.rules_traversed = cost_prefix_[static_cast<std::size_t>(rule) + 1];
  m.result.vpg_rules_traversed = vpg_prefix_[static_cast<std::size_t>(rule) + 1];
  return m;
}

CompiledMatch CompiledClassifier::default_result() const {
  CompiledMatch m;
  m.result.action = default_action_;
  m.result.matched_index = -1;
  m.result.rules_traversed = cost_prefix_.back();
  m.result.vpg_rules_traversed = vpg_prefix_.back();
  return m;
}

CompiledMatch CompiledClassifier::match_vpg(std::uint32_t vpg_id) const {
  const auto it = vpg_index_.find(vpg_id);
  CompiledMatch m = it == vpg_index_.end()
                        ? default_result()
                        : make_result_for_rule(it->second);
  m.nodes = 1;  // one id-map probe
  return m;
}

CompiledMatch CompiledClassifier::match(const net::FiveTuple& t) const {
  CompiledMatch m;
  int nodes = 0;
  const std::uint64_t* rows[5];
  const std::uint32_t values[5] = {t.protocol, t.src.value(), t.dst.value(),
                                   t.src_port, t.dst_port};
  for (int f = 0; f < 5; ++f) {
    rows[f] = fields_[f].row(values[f], words_);
    nodes += fields_[f].search_depth;
  }
  for (std::size_t w = 0; w < words_; ++w) {
    ++nodes;
    const std::uint64_t word =
        rows[0][w] & rows[1][w] & rows[2][w] & rows[3][w] & rows[4][w];
    if (word != 0) {
      m = make_result(static_cast<int>(w * 64) + std::countr_zero(word));
      m.nodes = nodes + 1;  // +1 verdict node
      return m;
    }
  }
  m = default_result();
  m.nodes = nodes + 1;
  return m;
}

CompiledMatch CompiledClassifier::match(const net::FrameView& v) const {
  if (v.vpg) return match_vpg(v.vpg->vpg_id);
  const auto tuple = v.five_tuple();
  if (!tuple) {
    CompiledMatch m = default_result();
    m.nodes = 1;
    return m;
  }
  return match(*tuple);
}

int CompiledClassifier::worst_case_nodes() const {
  int nodes = 1;
  for (const auto& f : fields_) nodes += f.search_depth;
  return nodes + static_cast<int>(words_);
}

std::size_t CompiledClassifier::memory_bytes() const {
  std::size_t bytes = util::heap_bytes(entry_rule_) + util::heap_bytes(rule_action_) +
                      util::heap_bytes(rule_vpg_id_) + util::heap_bytes(cost_prefix_) +
                      util::heap_bytes(vpg_prefix_) + util::heap_bytes(vpg_index_);
  for (const auto& f : fields_) {
    bytes += util::heap_bytes(f.boundaries) + util::heap_bytes(f.bits);
  }
  return bytes;
}

}  // namespace barb::firewall
