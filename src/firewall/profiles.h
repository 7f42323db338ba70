// Embedded-firewall device profiles.
//
// We do not have the proprietary 3CR990 firmware, so the EFW and ADF are
// modeled as a single-server queue on the NIC's embedded processor with a
// linear first-match cost model (DESIGN.md, "Cost-model calibration"):
//
//   service(frame) = arrival_overhead + fixed + frame_bytes * per_byte
//                  + rule_units_traversed * per_rule
//                  + [matching VPG] (vpg_setup + sealed_payload_bytes * vpg_byte)
//
// where arrival_overhead is charged for every frame that reaches the card,
// including frames dropped at a full ring (receive livelock).
//
// Calibration anchors (paper, 100 Mbps testbed) and the resulting EFW
// constants:
//  * A ~45 kpps one-rule UDP flood (minimum-size frames; 30% of the 100 Mbps
//    maximum frame rate) causes denial of service:
//      t_small(1) = arr + fixed + 60*per_byte + per_rule = 22.2 us.
//  * EFW sustains ~4100 maximum-size frames/s behind a 64-rule policy
//    (~50 Mbps). The CPU serves r data frames plus r/2 delayed ACKs
//    (minimum-size) per second: r * t_big(64) + r/2 * t_small(64) = 1
//    ->  t_big(64) = 162.6 us.
//  * No significant bandwidth loss below ~20 rules; clear loss by 32.
//  Solving with per_byte = 26 ns (the per-byte term is what lets a
//  minimum-frame flood starve full-size data frames at saturation):
//      arr = 4 us, fixed = 15 us, per_rule = 1.63 us.
//  Cross-checks: t_big(1) = 60 us (full line rate at shallow rule-sets ok),
//  minimum allowed-TCP-flood rate at depth 64 with RST responses
//  1/(2 * t_small(64)) ~ 4.0 kpps (paper: ~4.5 kpps), deny ~ 2x allow.
//  * ADF sustains ~33 Mbps at 64 rules on the same hardware ("a less
//    efficient packet filtering algorithm"): per_rule = 2.92 us.
//  * ADF VPG throughput ~55 Mbps at one VPG: vpg_setup = 6 us,
//    vpg_byte = 80 ns (per sealed payload byte, paid only at the matching
//    VPG rule).
//  * EFW lockup: under a denied flood above ~1000 packets/s the card stopped
//    processing entirely until the firewall agent was restarted (paper
//    section 4.3). Modeled as a latching fault on the deny path.
#pragma once

#include <cstdint>
#include <string>

#include "sim/time.h"

namespace barb::firewall {

// Rule-matching backend on the embedded CPU (firewall::Matcher runs it).
//
//  * kLinear — the calibrated paper-faithful model: O(rules) first-match
//    interpretation per frame (everything the paper measured).
//  * kLinearStateful — counterfactual: kLinear plus pf-style flow state.
//    Established allowed flows skip the rule walk at `state_lookup` cost.
//    See firewall/flow_state.h.
//  * kCompiled — counterfactual: the firmware compiles the rule-set into a
//    field-wise decision structure at policy-push time; per-frame cost is
//    per *node visited* (binary-search steps + intersection words), not per
//    rule. See firewall/classifier/compiled_classifier.h.
//  * kCompiledFlowCache — kCompiled plus a five-tuple verdict cache:
//    established flows resolve with one hash+compare and skip the decision
//    structure entirely. See firewall/classifier/flow_cache.h.
enum class MatchBackend : std::uint8_t {
  kLinear,
  kLinearStateful,
  kCompiled,
  kCompiledFlowCache,
};

inline const char* to_string(MatchBackend backend) {
  switch (backend) {
    case MatchBackend::kLinear: return "linear";
    case MatchBackend::kLinearStateful: return "linear+stateful";
    case MatchBackend::kCompiled: return "compiled";
    case MatchBackend::kCompiledFlowCache: return "compiled+flowcache";
  }
  return "?";
}

struct DeviceProfile {
  std::string name;
  // Per-arrival cost (descriptor/DMA handling) charged for EVERY frame that
  // reaches the card — including frames dropped because a ring is full.
  // This is the receive-livelock term: past saturation, additional flood
  // packets still consume CPU, which is why the paper's measured bandwidth
  // falls to "almost zero" rather than plateauing at the residual rate.
  sim::Duration arrival_overhead = sim::Duration::microseconds(4);
  // Per-frame base processing cost on the embedded CPU (accepted frames).
  sim::Duration fixed = sim::Duration::microseconds(15);
  // Per-byte processing (copy/inspect) cost.
  sim::Duration per_byte = sim::Duration::nanoseconds(26);
  // Cost per rule unit traversed (a VPG rule pair is two units).
  sim::Duration per_rule = sim::Duration::nanoseconds(1630);
  // Crypto costs, paid only when a frame matches a VPG rule.
  sim::Duration vpg_setup = sim::Duration::microseconds(6);
  sim::Duration vpg_per_byte = sim::Duration::nanoseconds(80);
  // Relative service-time jitter (uniform +/- fraction). Real firmware cost
  // varies per packet; without it, a constant-rate flood phase-locks with
  // the service clock and drop-tail discards become deterministic instead
  // of hitting flows proportionally.
  double service_jitter = 0.15;
  // On-card packet memory (bytes) for frames awaiting the embedded CPU,
  // per direction (the 3CR990's 3XP processor has 128 KB of local RAM).
  // Byte accounting is load-bearing: a minimum-size flood packs ~25x more
  // frames into the buffer than full-size data traffic, which is how the
  // flood starves legitimate frames of buffer space at saturation.
  std::size_t rx_buffer_bytes = 64 * 1024;
  std::size_t tx_buffer_bytes = 64 * 1024;
  // State-table probe of the kLinearStateful backend (the real EFW/ADF are
  // stateless; this is the "what if the card kept pf-style flow state"
  // ablation), paid by every cleartext frame: a hit skips the rule walk.
  sim::Duration state_lookup = sim::Duration::microseconds(1);
  // Ablation model: decrypt every VPG-encapsulated frame at each VPG rule
  // traversed instead of only at the matching rule. The paper infers the
  // real ADF does NOT do this ("the ADF is able to avoid decrypting
  // incoming packets until they reach the matching VPG rule"); setting this
  // shows what Figure 2's VPG curve would look like otherwise.
  bool vpg_decrypt_always = false;
  // Deny-path lockup fault (EFW only): if more than lockup_threshold frames
  // are denied within one second, the card latches and drops everything
  // until the agent restarts it. 0 disables the fault.
  std::uint64_t lockup_denies_per_sec = 0;

  // --- Matching backend costs (counterfactual) ---------------------------
  // The profile holds each backend's cost constants; which backend a card
  // runs is the card's own constructor argument (FirewallNic, Matcher). The
  // linear backends keep the calibrated per_rule cost above (plus
  // state_lookup when stateful); the compiled backends replace the
  // rule-walk term with their own cost model. These are NOT
  // calibrated against hardware (no such firmware existed) — they are
  // anchored to the same embedded CPU's primitive costs: one decision-tree
  // node is a word-sized load+compare+branch in card RAM (a fraction of the
  // 1.63 us full rule evaluation), one flow-cache probe is a tuple hash
  // plus a 13-byte key compare.
  // Cost per compiled-structure node visited on a classification
  // (binary-search steps + intersection words; CompiledMatch::nodes).
  sim::Duration compiled_node = sim::Duration::nanoseconds(200);
  // Hash + key-compare cost per flow-cache lookup (hit or miss; a miss pays
  // this *plus* the compiled walk, plus the insert).
  sim::Duration flow_lookup = sim::Duration::nanoseconds(900);
  // Insert/displacement cost charged when a miss caches its verdict.
  sim::Duration flow_insert = sim::Duration::nanoseconds(400);
  // Verdict-cache capacity (entries; rounded up to a power of two).
  std::size_t flow_cache_capacity = 8192;
};

// 3Com Embedded Firewall (EFW) on the 3CR990.
inline DeviceProfile efw_profile() {
  DeviceProfile p;
  p.name = "EFW";
  // The commercial EFW has no VPG support; the crypto fields are unused.
  p.lockup_denies_per_sec = 1000;
  return p;
}

// Adventium Autonomic Distributed Firewall (ADF), same hardware, slower
// matcher, plus VPG encryption.
inline DeviceProfile adf_profile() {
  DeviceProfile p;
  p.name = "ADF";
  p.per_rule = sim::Duration::nanoseconds(2920);
  return p;
}

}  // namespace barb::firewall
