// Compiled packet classifier: field-wise interval tables with bit-vector
// priority resolution (the Lucent bit-vector scheme over five dimensions).
//
// The linear matcher in rule_set.cc is the paper-faithful model of the NIC's
// embedded CPU: O(rules) per frame, which is the whole bottleneck the paper
// measures. This classifier is the counterfactual backend — what the card
// could do if the firmware compiled the ordered rule-set at policy-push time
// instead of interpreting it per frame:
//
//  * Every rule expands into one directed entry (plus a reversed entry when
//    bidirectional); entries keep rule order, so bit position order equals
//    first-match priority order.
//  * Each of the five fields (protocol, src addr, dst addr, src port,
//    dst port) gets an interval table: the entry ranges cut the field's
//    value domain into elementary intervals, and each interval stores the
//    bit-set of entries whose range covers it.
//  * A lookup binary-searches each field's boundary array, ANDs the five
//    bit-sets word by word, and the first set bit of the intersection is the
//    first matching rule. VPG-encapsulated frames resolve through a separate
//    id -> first-VPG-rule index map (the device cannot see inner selectors).
//
// Verdicts are bit-identical to RuleSet::match on every MatchResult field:
// traversal counts (which only exist to drive the *linear* cost model) are
// reconstructed from prefix sums over the rule list, so differential oracles
// can compare the full struct. The compiled backend's own cost unit is
// `nodes` — binary-search steps plus intersection words scanned — which the
// DeviceProfile turns into service time.
//
// Memory is the scheme's known tradeoff: O(intervals x entries/64) bits per
// field, i.e. quadratic-ish in rule count. At the paper's 64-rule depths it
// is a few KB; at the microbench's 4096-rule depth a few tens of MB. Rebuild
// is O(entries x intervals) and happens only at policy push.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "firewall/rule_set.h"
#include "net/five_tuple.h"
#include "net/frame_view.h"

namespace barb::firewall {

struct CompiledMatch {
  // Bit-identical to what RuleSet::match would return for the same input.
  MatchResult result;
  // Decision-structure work: binary-search steps + intersection words
  // scanned (+1 for the verdict node). The compiled cost model charges
  // DeviceProfile::compiled_node per unit.
  int nodes = 0;
};

struct CompiledClassifierStats {
  std::uint64_t rebuilds = 0;
  std::size_t rules = 0;
  std::size_t entries = 0;       // directed entries after expansion
  std::size_t intervals = 0;     // elementary intervals across all fields
  std::size_t memory_bytes = 0;  // field tables: bit-vector + boundary storage
};

class CompiledClassifier {
 public:
  CompiledClassifier() = default;

  // Translates an ordered rule-set into the field-wise structure. Called at
  // policy-push time; the previous structure is replaced wholesale (the sim
  // is single-threaded per simulation, so the swap is atomic with respect
  // to frame processing).
  void rebuild(const RuleSet& rules);

  // First-match lookup, mirroring RuleSet::match(FrameView): VPG frames by
  // id, cleartext frames by tuple, tuple-less frames fall through to the
  // default action at full traversal cost.
  CompiledMatch match(const net::FrameView& v) const;
  CompiledMatch match(const net::FiveTuple& t) const;

  // Worst-case lookup nodes (all binary searches + a full intersection
  // scan): the capacity estimate FloodGuard sizes admission against.
  int worst_case_nodes() const;

  const CompiledClassifierStats& stats() const { return stats_; }

  // Heap held by every table: field tables, per-entry and per-rule vectors,
  // the VPG index (stats().memory_bytes counts only the field tables).
  std::size_t memory_bytes() const;

 private:
  // One field's interval table. Values are widened to uint32.
  struct FieldTable {
    std::vector<std::uint32_t> boundaries;  // sorted, boundaries[0] == 0
    std::vector<std::uint64_t> bits;        // intervals x words, row-major
    int search_depth = 0;                   // ceil(log2(intervals)), >= 1

    const std::uint64_t* row(std::uint32_t value, std::size_t words) const;
  };

  CompiledMatch make_result(int entry_bit) const;
  CompiledMatch make_result_for_rule(int rule) const;
  CompiledMatch default_result() const;
  CompiledMatch match_vpg(std::uint32_t vpg_id) const;

  // Per-entry metadata: which rule a bit position belongs to.
  std::vector<int> entry_rule_;
  // Verdict material per rule, copied out of the RuleSet at rebuild so the
  // classifier answers without touching the rule list.
  std::vector<RuleAction> rule_action_;
  std::vector<std::uint32_t> rule_vpg_id_;
  // Prefix sums over the rule list: cost_prefix_[i] = traversal units of
  // rules [0, i); vpg_prefix_[i] = VPG rules among them. A match at index k
  // therefore traversed cost_prefix_[k + 1] units — exactly the linear
  // matcher's accounting, at O(1).
  std::vector<int> cost_prefix_{0};
  std::vector<int> vpg_prefix_{0};

  FieldTable fields_[5];  // proto, src, dst, sport, dport
  std::size_t words_ = 0;
  std::unordered_map<std::uint32_t, int> vpg_index_;  // id -> first rule index
  RuleAction default_action_ = RuleAction::kDeny;
  CompiledClassifierStats stats_;
};

}  // namespace barb::firewall
