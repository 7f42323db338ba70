// Fabric::memory_audit() against the heap a fabric actually holds.
//
// This binary replaces the global operator new/delete with a counting pair
// that keeps each block's size in a header, so `g_live_bytes` is the
// process's live heap. It is its own test executable because the counters
// see every allocation in the process.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>

#include "core/topology.h"
#include "firewall/policy.h"
#include "firewall/profiles.h"
#include "stack/udp.h"

namespace {

std::int64_t g_live_bytes = 0;
constexpr std::size_t kHeader = alignof(std::max_align_t);

void* counted_alloc(std::size_t size) {
  void* base = std::malloc(size + kHeader);
  if (base == nullptr) throw std::bad_alloc();
  *static_cast<std::size_t*>(base) = size;
  g_live_bytes += static_cast<std::int64_t>(size);
  return static_cast<char*>(base) + kHeader;
}

void counted_free(void* p) noexcept {
  if (p == nullptr) return;
  void* base = static_cast<char*>(p) - kHeader;
  g_live_bytes -= static_cast<std::int64_t>(*static_cast<std::size_t*>(base));
  std::free(base);
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }

namespace barb::core {
namespace {

constexpr int kHosts = 64;
constexpr std::uint16_t kPort = 5000;

enum class Step { kInstall, kClassifyOneFrame, kOneAllowedFlow };

// ADF depth 32, the fleet benches' policy shape: 31 TCP denies, then the
// allow every UDP frame of the traffic step reaches.
std::string depth32_policy() {
  std::string text = "default deny\n";
  for (int port = 1; port <= 31; ++port) {
    text += "deny tcp from any to any port " + std::to_string(1000 + port) + "\n";
  }
  text += "allow udp from any to any\n";
  return text;
}

LeafSpineSpec adf_fleet(int hosts, firewall::MatchBackend backend) {
  LeafSpineSpec spec;
  spec.hosts = hosts;
  spec.default_nic.kind = FirewallKind::kAdf;
  spec.default_nic.backend = backend;
  return spec;
}

// Builds the fleet, installs the policy on every card and, for the traffic
// steps, has every host send one UDP datagram to its neighbour: each card
// classifies its outbound frame and its neighbour's inbound one, and every
// verdict is an allow.
std::unique_ptr<Fabric> build_and_run(sim::Simulation& sim, const LeafSpineSpec& spec,
                                      Step step) {
  auto fabric = build_leaf_spine(sim, spec);
  const auto parsed = firewall::parse_policy(depth32_policy());
  for (int i = 0; i < fabric->num_hosts(); ++i) {
    fabric->firewall(i)->install_rule_set(*parsed.rule_set);
  }
  if (step == Step::kInstall) return fabric;
  const std::uint8_t payload[32] = {};
  for (int i = 0; i < fabric->num_hosts(); ++i) fabric->host(i).udp_open(kPort);
  for (int i = 0; i < fabric->num_hosts(); ++i) {
    auto* socket = fabric->host(i).udp_open(0);
    const int peer = (i + 1) % fabric->num_hosts();
    socket->send_to(fabric->host(peer).ip(), kPort, payload);
  }
  sim.run_for(sim::Duration::milliseconds(10));
  return fabric;
}

struct Measured {
  std::int64_t counted = 0;
  MemoryAudit audit;
  std::uint64_t screened = 0;         // frames the cards' FloodGuards screened
  std::size_t tracked_sources = 0;    // sources they hold
};

Measured measure(const LeafSpineSpec& spec, Step step) {
  // Warm-up on a small fleet: one-time allocations (thread-local buffer
  // pools, function-local statics) must not land in the measured delta.
  {
    sim::Simulation warm(1);
    LeafSpineSpec small = spec;
    small.hosts = 4;
    build_and_run(warm, small, step);
  }
  sim::Simulation sim(1);
  const std::int64_t before = g_live_bytes;
  auto fabric = build_and_run(sim, spec, step);
  Measured m;
  m.counted = g_live_bytes - before;
  m.audit = fabric->memory_audit();
  for (int i = 0; i < fabric->num_hosts(); ++i) {
    if (const firewall::FloodGuard* guard = fabric->firewall(i)->flood_guard()) {
      m.screened += guard->stats().screened;
      m.tracked_sources += guard->tracked_sources();
    }
  }
  return m;
}

void expect_within_15_percent(const Measured& m) {
  const double audited = static_cast<double>(m.audit.total_bytes());
  const double counted = static_cast<double>(m.counted);
  EXPECT_GT(counted, 0.0);
  EXPECT_NEAR(audited / counted, 1.0, 0.15)
      << "audit " << audited << " B vs counted " << counted << " B (per host "
      << audited / kHosts << " vs " << counted / kHosts << ")";
}

TEST(MemoryAudit, MatchesCountedAllocations) {
  {
    SCOPED_TRACE("ADF linear, after install_rule_set");
    const auto m =
        measure(adf_fleet(kHosts, firewall::MatchBackend::kLinear), Step::kInstall);
    expect_within_15_percent(m);
    EXPECT_EQ(m.audit.hosts, static_cast<std::size_t>(kHosts));
  }
  {
    SCOPED_TRACE("ADF compiled+flowcache, every card classified one frame");
    const auto m = measure(
        adf_fleet(kHosts, firewall::MatchBackend::kCompiledFlowCache),
        Step::kClassifyOneFrame);
    expect_within_15_percent(m);
  }
  {
    SCOPED_TRACE("stateful ADF, one allowed flow per card");
    const auto m = measure(adf_fleet(kHosts, firewall::MatchBackend::kLinearStateful),
                           Step::kOneAllowedFlow);
    expect_within_15_percent(m);
  }
  {
    SCOPED_TRACE("ADF with FloodGuard, every card screened one frame");
    LeafSpineSpec spec = adf_fleet(kHosts, firewall::MatchBackend::kLinear);
    spec.default_nic.flood_guard = firewall::FloodGuardConfig{};
    const auto m = measure(spec, Step::kClassifyOneFrame);
    expect_within_15_percent(m);
    EXPECT_EQ(m.screened, static_cast<std::uint64_t>(kHosts));
    EXPECT_EQ(m.tracked_sources, static_cast<std::size_t>(kHosts));
  }
}

}  // namespace
}  // namespace barb::core
