// Micro-benchmark: event-engine throughput and steady-state allocations.
//
// Drives a scheduler-shaped workload — hundreds of concurrent self-
// rescheduling event chains with mixed horizons, plus churning far-future
// timers that get cancelled before firing (TCP-retransmit style) — through
// two engines:
//
//   legacy : a faithful in-file replica of the pre-overhaul scheduler
//            (std::function callbacks, one make_shared<bool> cancellation
//            flag per event, binary heap) — the baseline the overhaul is
//            measured against;
//   heap   : the event engine (sim::Scheduler): slab-pooled records and
//            InlineCallback over a binary heap.
//
// Callbacks carry a 40-byte capture, matching the simulator's real frame-
// delivery closures (packet handle + endpoint context): big enough that
// std::function heap-allocates it, small enough that InlineCallback stores
// it inline. The binary's global operator new/delete count every heap
// allocation, so the steady-state measurement window can assert *zero*
// allocations per scheduled event on the engine.
//
// Gates (the bench exits nonzero, so the ctest run is a regression gate):
//   engine events/sec >= 2x legacy events/sec, as the median ratio over
//     short interleaved rounds of both engines
//   engine steady-state allocations per event == 0
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <memory>
#include <new>
#include <vector>

#include "bench_common.h"
#include "sim/scheduler.h"
#include "util/stats.h"

// ---------------------------------------------------------------------------
// Global allocation counter. Single-threaded binary; plain counters suffice.

namespace {
std::uint64_t g_alloc_count = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++g_alloc_count;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  ++g_alloc_count;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
// Out of line: inlined into a library container's destructor, GCC 12 under
// -fsanitize=thread pairs this free() with the allocator's operator new and
// reports a mismatch (-Wmismatched-new-delete, an error with -Werror).
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using barb::sim::Duration;
using barb::sim::TimePoint;

// ---------------------------------------------------------------------------
// The pre-overhaul engine, reproduced verbatim (minus the unused bits) so the
// speedup is measured against what the simulator actually ran, not a straw
// man. See git history of src/sim/scheduler.h.

class LegacyHandle {
 public:
  LegacyHandle() = default;
  explicit LegacyHandle(std::weak_ptr<bool> state) : state_(std::move(state)) {}
  void cancel() {
    if (auto s = state_.lock()) *s = true;
    state_.reset();
  }

 private:
  std::weak_ptr<bool> state_;
};

class LegacyScheduler {
 public:
  using Callback = std::function<void()>;

  LegacyHandle schedule_at(TimePoint at, Callback fn) {
    auto cancelled = std::make_shared<bool>(false);
    LegacyHandle handle{std::weak_ptr<bool>(cancelled)};
    heap_.push_back(Entry{at, next_seq_++, std::move(fn), std::move(cancelled)});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
    return handle;
  }

  TimePoint now() const { return now_; }

  bool run_one() {
    while (!heap_.empty()) {
      std::pop_heap(heap_.begin(), heap_.end(), Later{});
      Entry e = std::move(heap_.back());
      heap_.pop_back();
      if (*e.cancelled) continue;
      now_ = e.at;
      e.fn();
      return true;
    }
    return false;
  }

 private:
  struct Entry {
    TimePoint at;
    std::uint64_t seq;
    Callback fn;
    std::shared_ptr<bool> cancelled;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  std::vector<Entry> heap_;
  TimePoint now_ = TimePoint::origin();
  std::uint64_t next_seq_ = 0;
};

// ---------------------------------------------------------------------------
// Workload: kChains self-rescheduling chains with per-chain xorshift delays
// of mixed horizons, plus a far-future cancelled-before-firing timer per
// chain (tombstone churn). Identical event sequence on every engine.

constexpr std::uint32_t kChains = 256;

template <class Sched, class Handle>
class Workload {
 public:
  explicit Workload(Sched& sched) : sched_(sched) {
    chains_.resize(kChains);
    timers_.resize(kChains);
    for (std::uint32_t c = 0; c < kChains; ++c) {
      chains_[c].rng = 0x9e3779b97f4a7c15ull ^ (c * 0xbf58476d1ce4e5b9ull);
      spawn(c);
    }
  }

  // Runs until `target` events have executed (across all chains).
  void run_until_count(std::uint64_t target) {
    while (executed_ < target && sched_.run_one()) {
    }
  }

  std::uint64_t executed() const { return executed_; }

 private:
  struct Chain {
    std::uint64_t rng = 0;
    std::uint64_t fires = 0;
  };

  // Capture payload sized like the simulator's frame-delivery closures:
  // exceeds std::function's small-object buffer, fits InlineCallback's.
  struct Payload {
    Workload* w;
    std::uint32_t chain;
    unsigned char packet_ctx[28];
  };
  static_assert(sizeof(Payload) == 40);

  void spawn(std::uint32_t c) {
    Chain& ch = chains_[c];
    ch.rng ^= ch.rng << 13;
    ch.rng ^= ch.rng >> 7;
    ch.rng ^= ch.rng << 17;
    // Mixed horizons: mostly under 4 us, occasionally a ~1 ms hop.
    const std::uint64_t r = ch.rng;
    Duration delay = Duration::nanoseconds(static_cast<std::int64_t>(r % 4096));
    if ((r & 0xf) == 0) {
      delay = Duration::nanoseconds(static_cast<std::int64_t>(1u << 20) +
                                    static_cast<std::int64_t>(r % 1024));
    }
    Payload p{this, c, {}};
    auto h = sched_.schedule_at(sched_.now() + delay, [p] { p.w->fire(p.chain); });
    static_cast<void>(h);
  }

  void fire(std::uint32_t c) {
    ++executed_;
    Chain& ch = chains_[c];
    ++ch.fires;
    // Retransmit-timer churn: replace this chain's pending far-future timer
    // with a fresh one; the old one never fires.
    if ((ch.fires & 63) == 0) {
      timers_[c].cancel();
      Payload p{this, c, {}};
      timers_[c] = sched_.schedule_at(
          sched_.now() + Duration::nanoseconds(std::int64_t{1} << 26),
          [p] { ++p.w->timers_fired_; });
    }
    spawn(c);
  }

  Sched& sched_;
  std::vector<Chain> chains_;
  std::vector<Handle> timers_;
  std::uint64_t executed_ = 0;
  std::uint64_t timers_fired_ = 0;
};

// Host seconds and heap allocations of one or more rounds.
struct Round {
  double secs = 0;
  std::uint64_t allocs = 0;
};

// Runs `n` more chain events on `w`.
template <class W>
Round run_round(W& w, std::uint64_t n) {
  const std::uint64_t allocs_before = g_alloc_count;
  const auto t0 = std::chrono::steady_clock::now();
  w.run_until_count(w.executed() + n);
  const auto t1 = std::chrono::steady_clock::now();
  return {std::chrono::duration<double>(t1 - t0).count(), g_alloc_count - allocs_before};
}

struct RunResult {
  double events_per_sec = 0;
  double allocs_per_event = 0;
};

RunResult summarize(const Round& total, std::uint64_t events) {
  const double n = static_cast<double>(events);
  RunResult r;
  r.events_per_sec = total.secs > 0 ? n / total.secs : 0;
  r.allocs_per_event = static_cast<double>(total.allocs) / n;
  return r;
}

}  // namespace

int main() {
  using namespace barb;
  using namespace barb::core;
  bench::print_header("Micro-benchmark: event engine",
                      "scheduler throughput / allocation gate (not a paper figure)");
  const auto opt = bench::bench_options();

  telemetry::BenchArtifact artifact("microbench_scheduler");
  bench::set_common_meta(artifact, opt);
  artifact.set_meta("chains", static_cast<double>(kChains));

  // The warmup must carry every structure past its steady-state high-water
  // mark (slab chunks, heap capacity, tombstone peak) so that the measured
  // window can assert exactly zero allocations.
  const std::uint64_t warmup = 1'000'000;
  const std::uint64_t measured = bench::fast_mode() ? 1'000'000 : 4'000'000;
  // The two engines run in short interleaved rounds, alternating which goes
  // first, so a burst of load on the shared host hits both sides of a round;
  // the gate reads the median of the per-round ratios.
  constexpr int kRounds = 20;
  const std::uint64_t per_round = measured / kRounds;

  LegacyScheduler legacy;
  Workload<LegacyScheduler, LegacyHandle> legacy_w(legacy);
  sim::Scheduler heap;
  Workload<sim::Scheduler, sim::EventHandle> heap_w(heap);
  legacy_w.run_until_count(warmup);
  heap_w.run_until_count(warmup);

  Round legacy_total, heap_total;
  Stats ratios;
  for (int r = 0; r < kRounds; ++r) {
    Round l, h;
    if (r % 2 == 0) {
      l = run_round(legacy_w, per_round);
      h = run_round(heap_w, per_round);
    } else {
      h = run_round(heap_w, per_round);
      l = run_round(legacy_w, per_round);
    }
    legacy_total.secs += l.secs;
    legacy_total.allocs += l.allocs;
    heap_total.secs += h.secs;
    heap_total.allocs += h.allocs;
    // Equal event counts, so the time ratio is the throughput ratio.
    ratios.add(h.secs > 0 ? l.secs / h.secs : 0);
  }

  const std::uint64_t events = per_round * kRounds;
  const RunResult legacy_r = summarize(legacy_total, events);
  const RunResult heap_r = summarize(heap_total, events);
  const double speedup = ratios.median();

  TextTable table({"Engine", "events/s", "allocs/event"});
  table.add_row({"legacy heap (shared_ptr+std::function)",
                 fmt_int(legacy_r.events_per_sec), fmt(legacy_r.allocs_per_event)});
  table.add_row({"slab heap (sim::Scheduler)", fmt_int(heap_r.events_per_sec),
                 fmt(heap_r.allocs_per_event)});
  std::printf("%s\n", table.to_string().c_str());
  std::printf("engine vs legacy speedup: %.2fx (median of %d interleaved rounds)\n\n",
              speedup, kRounds);
  bench::maybe_write_csv("microbench_scheduler", table);

  artifact.add_point("events_per_sec_legacy", 0, legacy_r.events_per_sec);
  artifact.add_point("events_per_sec_heap", 0, heap_r.events_per_sec);
  artifact.add_point("speedup_vs_legacy", 0, speedup);
  artifact.add_point("allocs_per_event_legacy", 0, legacy_r.allocs_per_event);
  artifact.add_point("allocs_per_event_heap", 0, heap_r.allocs_per_event);
  bench::write_artifact(artifact);

  bool ok = true;
  if (speedup < 2.0) {
    std::fprintf(stderr, "FAIL: engine speedup %.2fx < 2.0x over legacy engine\n",
                 speedup);
    ok = false;
  }
  if (heap_r.allocs_per_event != 0.0) {
    std::fprintf(stderr,
                 "FAIL: engine performed %.6f heap allocations per steady-state "
                 "event (want exactly 0)\n",
                 heap_r.allocs_per_event);
    ok = false;
  }
  if (!ok) return 1;
  std::printf("PASS: %.2fx >= 2.0x vs legacy, 0 steady-state allocs/event\n",
              speedup);
  return 0;
}
