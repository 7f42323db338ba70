#include "firewall/flood_guard.h"

#include <gtest/gtest.h>

#include "core/experiments.h"
#include "firewall/nic_firewall.h"
#include "net/packet_builder.h"
#include "telemetry/registry.h"

namespace barb::firewall {
namespace {

net::FrameView view_from(std::vector<std::uint8_t>& storage, net::Ipv4Address src) {
  net::IpEndpoints ep;
  ep.src_ip = src;
  ep.dst_ip = net::Ipv4Address(10, 0, 0, 40);
  ep.src_mac = net::MacAddress::from_host_id(1);
  ep.dst_mac = net::MacAddress::from_host_id(40);
  const std::vector<std::uint8_t> payload(10, 0x42);
  storage = net::build_udp_frame(ep, 1000, 7777, payload);
  return *net::FrameView::parse(storage);
}

FloodGuardConfig small_config() {
  FloodGuardConfig cfg;
  cfg.per_source_rate = 100;
  cfg.per_source_burst = 10;
  cfg.aggregate_rate = 1000;
  cfg.aggregate_burst = 50;
  cfg.max_sources = 8;
  return cfg;
}

// A card built without a guard holds none and registers no guard.* metric;
// one with a guard pays for the object, and its table stays empty until a
// source is admitted.
TEST(FloodGuard, OnlyAGuardedCardHoldsAGuard) {
  sim::Simulation sim(1);
  FirewallNic plain(sim, net::MacAddress::from_host_id(40), "plain", efw_profile());
  FirewallNic guarded(sim, net::MacAddress::from_host_id(41), "guarded", efw_profile());
  guarded.enable_flood_guard(FloodGuardConfig{});
  EXPECT_EQ(plain.flood_guard(), nullptr);
  ASSERT_NE(guarded.flood_guard(), nullptr);
  EXPECT_EQ(guarded.flood_guard()->memory_bytes(), 0u);
  EXPECT_EQ(guarded.memory_bytes(), plain.memory_bytes() + sizeof(FloodGuard));

  telemetry::MetricRegistry registry;
  plain.register_metrics(registry, "card=plain");
  guarded.register_metrics(registry, "card=guarded");
  std::size_t plain_guard_metrics = 0;
  std::size_t guarded_guard_metrics = 0;
  registry.for_each([&](const telemetry::MetricRegistry::Entry& e) {
    if (!e.id.name.starts_with("guard.")) return;
    ++(e.id.labels == "card=plain" ? plain_guard_metrics : guarded_guard_metrics);
  });
  EXPECT_EQ(plain_guard_metrics, 0u);
  EXPECT_EQ(guarded_guard_metrics, 8u);
}

TEST(FloodGuard, PerSourceBurstThenRate) {
  FloodGuard guard(small_config());
  std::vector<std::uint8_t> storage;
  const auto v = view_from(storage, net::Ipv4Address(10, 0, 0, 1));
  const auto t0 = sim::TimePoint::origin() + sim::Duration::seconds(5);

  int admitted = 0;
  for (int i = 0; i < 50; ++i) {
    if (guard.admit(v, t0)) ++admitted;
  }
  EXPECT_EQ(admitted, 10);  // burst only at a single instant
  EXPECT_EQ(guard.stats().per_source_drops, 40u);

  // At 100/s, one second later the source has a fresh burst's worth.
  admitted = 0;
  const auto t1 = t0 + sim::Duration::seconds(1);
  for (int i = 0; i < 50; ++i) {
    if (guard.admit(v, t1)) ++admitted;
  }
  EXPECT_EQ(admitted, 10);
}

TEST(FloodGuard, IndependentSourcesIndependentBudgets) {
  FloodGuard guard(small_config());
  const auto t0 = sim::TimePoint::origin() + sim::Duration::seconds(5);
  for (int s = 1; s <= 4; ++s) {
    std::vector<std::uint8_t> storage;
    const auto v = view_from(storage, net::Ipv4Address(10, 0, 0, static_cast<std::uint8_t>(s)));
    int admitted = 0;
    for (int i = 0; i < 20; ++i) {
      if (guard.admit(v, t0)) ++admitted;
    }
    EXPECT_EQ(admitted, 10) << "source " << s;
  }
}

TEST(FloodGuard, AggregateCapBindsAcrossSources) {
  auto cfg = small_config();
  cfg.per_source_rate = 1e6;  // per-source effectively off
  cfg.per_source_burst = 1e6;
  cfg.aggregate_rate = 100;
  cfg.aggregate_burst = 20;
  cfg.max_sources = 100000;
  FloodGuard guard(cfg);
  const auto t0 = sim::TimePoint::origin() + sim::Duration::seconds(5);

  int admitted = 0;
  for (int s = 0; s < 1000; ++s) {
    std::vector<std::uint8_t> storage;
    const auto v = view_from(
        storage, net::Ipv4Address(10, 1, static_cast<std::uint8_t>(s / 250),
                                  static_cast<std::uint8_t>(s % 250 + 1)));
    if (guard.admit(v, t0)) ++admitted;
  }
  EXPECT_EQ(admitted, 20);
  // Everything else died at the new-source or aggregate gate.
  EXPECT_EQ(guard.stats().aggregate_drops + guard.stats().new_source_drops, 980u);
}

TEST(FloodGuard, SourceTableIsBounded) {
  FloodGuard guard(small_config());  // max 8 sources
  const auto t0 = sim::TimePoint::origin() + sim::Duration::seconds(5);
  for (int s = 0; s < 100; ++s) {
    std::vector<std::uint8_t> storage;
    const auto v = view_from(
        storage, net::Ipv4Address(10, 2, 0, static_cast<std::uint8_t>(s % 250 + 1)));
    guard.admit(v, t0);
  }
  EXPECT_LE(guard.tracked_sources(), 8u);
  EXPECT_GT(guard.stats().evictions, 0u);
}

TEST(FloodGuard, NewSourceDoesNotInheritIdleAccrual) {
  // A source first seen late in the simulation gets only its burst, not
  // `rate * elapsed` tokens.
  FloodGuard guard(small_config());
  const auto late = sim::TimePoint::origin() + sim::Duration::seconds(1000);
  std::vector<std::uint8_t> storage;
  const auto v = view_from(storage, net::Ipv4Address(10, 0, 0, 9));
  int admitted = 0;
  for (int i = 0; i < 100; ++i) {
    if (guard.admit(v, late)) ++admitted;
  }
  EXPECT_EQ(admitted, 10);
}

// Integration: the guarded EFW survives the flood that kills the stock card.
TEST(FloodGuardIntegration, GuardedEfwSurvivesSingleSourceFlood) {
  core::MeasurementOptions opt;
  opt.window = sim::Duration::milliseconds(600);
  opt.repetitions = 1;
  core::FloodSpec flood;
  flood.rate_pps = 45000;

  core::TestbedConfig stock;
  stock.firewall = core::FirewallKind::kEfw;
  stock.action_rule_depth = 64;
  const double without =
      core::measure_bandwidth_under_flood(stock, flood, opt).mean();

  core::TestbedConfig guarded = stock;
  guarded.flood_guard = FloodGuardConfig{};
  const double with = core::measure_bandwidth_under_flood(guarded, flood, opt).mean();

  EXPECT_LT(without, 5.0);
  EXPECT_GT(with, 30.0);
}

TEST(FloodGuardIntegration, GuardIsFreeWithoutAttack) {
  core::MeasurementOptions opt;
  opt.window = sim::Duration::milliseconds(600);
  opt.repetitions = 1;
  core::TestbedConfig cfg;
  cfg.firewall = core::FirewallKind::kEfw;
  cfg.action_rule_depth = 64;
  const double base = core::measure_available_bandwidth(cfg, opt).mean();
  cfg.flood_guard = FloodGuardConfig{};
  const double guarded = core::measure_available_bandwidth(cfg, opt).mean();
  EXPECT_GT(guarded, base * 0.93);
}

}  // namespace
}  // namespace barb::firewall
