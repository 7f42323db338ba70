// Event-engine semantics: dispatch order, cancellation, tombstone
// compaction, periodic events, and a randomized differential check against
// a minimal reference model.
#include "sim/scheduler.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "sim/random.h"
#include "sim/simulation.h"

namespace barb::sim {
namespace {

TEST(Scheduler, RunsEventsInTimeOrder) {
  Scheduler s;
  std::vector<int> order;
  s.schedule_at(TimePoint::from_ns(30), [&] { order.push_back(3); });
  s.schedule_at(TimePoint::from_ns(10), [&] { order.push_back(1); });
  s.schedule_at(TimePoint::from_ns(20), [&] { order.push_back(2); });
  while (s.run_one()) {
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now().ns(), 30);
}

TEST(Scheduler, SameTimeEventsFireInSchedulingOrder) {
  Scheduler s;
  std::vector<int> order;
  const auto t = TimePoint::from_ns(5);
  for (int i = 0; i < 10; ++i) {
    s.schedule_at(t, [&order, i] { order.push_back(i); });
  }
  while (s.run_one()) {
  }
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

// Regression for the std::push_heap/pop_heap rewrite (the old
// priority_queue needed a const_cast to move from top()): FIFO tie-break
// must hold even when same-time events are interleaved with other times,
// cancellations, and events scheduled from inside callbacks — the shapes
// that actually exercise sift-up/sift-down in the heap.
TEST(Scheduler, TieBreakSurvivesInterleavedSchedulingAndCancellation) {
  Scheduler s;
  std::vector<int> order;
  const auto t5 = TimePoint::from_ns(5);
  const auto t9 = TimePoint::from_ns(9);
  s.schedule_at(t9, [&] { order.push_back(100); });
  s.schedule_at(t5, [&] { order.push_back(0); });
  auto cancelled = s.schedule_at(t5, [&] { order.push_back(-1); });
  s.schedule_at(t5, [&] {
    order.push_back(1);
    // Scheduled mid-execution for the *same* instant: runs after every
    // entry queued for t5 before it, in scheduling order.
    s.schedule_at(t5, [&] { order.push_back(3); });
  });
  s.schedule_at(TimePoint::from_ns(2), [&] { order.push_back(-2); });
  s.schedule_at(t5, [&] { order.push_back(2); });
  s.schedule_at(t9, [&] { order.push_back(101); });
  cancelled.cancel();
  while (s.run_one()) {
  }
  EXPECT_EQ(order, (std::vector<int>{-2, 0, 1, 2, 3, 100, 101}));
  EXPECT_EQ(s.now().ns(), 9);
  EXPECT_EQ(s.events_executed(), 7u);
}

TEST(Scheduler, CancelledEventDoesNotRun) {
  Scheduler s;
  bool ran = false;
  auto h = s.schedule_at(TimePoint::from_ns(10), [&] { ran = true; });
  EXPECT_TRUE(h.pending());
  h.cancel();
  EXPECT_FALSE(h.pending());
  while (s.run_one()) {
  }
  EXPECT_FALSE(ran);
  EXPECT_EQ(s.events_executed(), 0u);
}

TEST(Scheduler, CancelAfterFireIsNoop) {
  Scheduler s;
  auto h = s.schedule_at(TimePoint::from_ns(1), [] {});
  while (s.run_one()) {
  }
  EXPECT_FALSE(h.pending());
  h.cancel();  // must not crash or disturb anything
  EXPECT_FALSE(h.pending());
  EXPECT_EQ(s.pending_count(), 0u);
}

TEST(Scheduler, DefaultHandleIsInert) {
  EventHandle h;
  EXPECT_FALSE(h.pending());
  h.cancel();
}

TEST(Scheduler, EventsScheduledDuringExecutionRun) {
  Scheduler s;
  int count = 0;
  std::function<void()> chain = [&] {
    if (++count < 5) s.schedule_at(s.now() + Duration::nanoseconds(1), chain);
  };
  s.schedule_at(TimePoint::from_ns(0), chain);
  while (s.run_one()) {
  }
  EXPECT_EQ(count, 5);
  EXPECT_EQ(s.now().ns(), 4);
}

// Same-instant events fire in scheduling order at instants far in the
// future, interleaved with earlier traffic.
TEST(Scheduler, SameTimeFifoAtFarFutureInstants) {
  for (std::int64_t target : {
           (std::int64_t{1} << 6) + 3,
           (std::int64_t{1} << 12) + 3,
           (std::int64_t{1} << 18) + 3,
           (std::int64_t{1} << 24) + 3,
           (std::int64_t{1} << 30) + 3,
       }) {
    Scheduler s;
    std::vector<int> order;
    s.schedule_at(TimePoint::from_ns(1), [&] { order.push_back(-1); });
    s.schedule_at(TimePoint::from_ns(target / 2), [&] { order.push_back(-2); });
    for (int i = 0; i < 8; ++i) {
      s.schedule_at(TimePoint::from_ns(target), [&order, i] { order.push_back(i); });
    }
    while (s.run_one()) {
    }
    ASSERT_EQ(order.size(), 10u) << "target=" << target;
    EXPECT_EQ(order[0], -1);
    EXPECT_EQ(order[1], -2);
    for (int i = 0; i < 8; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i) + 2], i);
  }
}

// Moving the clock with advance_to (run_until does this) between two
// schedules keeps time order: the event scheduled before the advance fires
// before the later-instant event scheduled after it.
TEST(Scheduler, AdvanceToKeepsTimeOrder) {
  Scheduler s;
  std::vector<int> order;
  s.schedule_at(TimePoint::from_ns(788606), [&] { order.push_back(0); });
  s.advance_to(TimePoint::from_ns(786500));
  s.schedule_at(TimePoint::from_ns(793408), [&] { order.push_back(1); });
  while (s.run_one()) {
  }
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
  EXPECT_EQ(s.now().ns(), 793408);
}

// Two schedules for the same instant with an advance_to between them still
// fire in scheduling order.
TEST(Scheduler, AdvanceToKeepsSameInstantFifo) {
  Scheduler s;
  std::vector<int> order;
  const auto t = TimePoint::from_ns(788606);
  s.schedule_at(t, [&] { order.push_back(0); });
  s.advance_to(TimePoint::from_ns(786500));
  s.schedule_at(t, [&] { order.push_back(1); });
  while (s.run_one()) {
  }
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
}

// An event scheduled from inside a callback for the very instant being
// dispatched runs after everything already queued for that instant.
TEST(Scheduler, ScheduleFromWithinCallbackAtSameInstant) {
  Scheduler s;
  std::vector<int> order;
  const auto t = TimePoint::from_ns(100);
  s.schedule_at(t, [&] {
    order.push_back(0);
    s.schedule_at(t, [&] { order.push_back(2); });
  });
  s.schedule_at(t, [&] { order.push_back(1); });
  while (s.run_one()) {
  }
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(Scheduler, CancelDuringDispatchOfSameInstant) {
  Scheduler s;
  std::vector<int> order;
  const auto t = TimePoint::from_ns(7);
  EventHandle victim;
  s.schedule_at(t, [&] {
    order.push_back(0);
    victim.cancel();  // same-instant later event must not run
  });
  victim = s.schedule_at(t, [&] { order.push_back(1); });
  s.schedule_at(t, [&] { order.push_back(2); });
  while (s.run_one()) {
  }
  EXPECT_EQ(order, (std::vector<int>{0, 2}));
  EXPECT_EQ(s.events_executed(), 2u);
}

// A handle whose record was recycled for an unrelated event must stay inert:
// cancelling it must not kill the new occupant.
TEST(Scheduler, StaleHandleDoesNotCancelRecycledRecord) {
  Scheduler s;
  auto stale = s.schedule_at(TimePoint::from_ns(1), [] {});
  while (s.run_one()) {
  }
  bool ran = false;
  auto fresh = s.schedule_at(TimePoint::from_ns(10), [&] { ran = true; });
  stale.cancel();
  EXPECT_TRUE(fresh.pending());
  while (s.run_one()) {
  }
  EXPECT_TRUE(ran);
}

TEST(Scheduler, CancelledEventsCompact) {
  Scheduler s;
  std::vector<EventHandle> handles;
  const auto far = TimePoint::from_ns(std::int64_t{1} << 30);
  handles.reserve(1000);
  for (int i = 0; i < 1000; ++i) {
    handles.push_back(s.schedule_at(far + Duration::nanoseconds(i), [] {}));
  }
  EXPECT_EQ(s.pending_count(), 1000u);
  for (auto& h : handles) h.cancel();
  EXPECT_EQ(s.pending_count(), 0u);
  // Compaction must have reaped the bulk of the tombstones rather than
  // letting all 1000 linger until dispatch.
  EXPECT_LT(s.tombstone_count(), 128u);
  EXPECT_GE(s.stats().compactions, 1u);
  EXPECT_TRUE(s.empty());
  EXPECT_FALSE(s.run_one());
  EXPECT_EQ(s.tombstone_count(), 0u);
}

TEST(Scheduler, PeriodicEventReschedulesWithoutNewRecord) {
  Scheduler s;
  int fires = 0;
  EventHandle h = s.schedule_every(TimePoint::from_ns(10), Duration::nanoseconds(10),
                                   [&] { ++fires; });
  for (int i = 0; i < 50; ++i) EXPECT_TRUE(s.run_one());
  EXPECT_EQ(fires, 50);
  EXPECT_EQ(s.now().ns(), 500);
  EXPECT_TRUE(h.pending());
  // One periodic recurrence occupies exactly one slab record.
  EXPECT_EQ(s.stats().slab_records, 128u);
  h.cancel();
  EXPECT_FALSE(h.pending());
  EXPECT_FALSE(s.run_one());
  EXPECT_EQ(fires, 50);
}

TEST(Scheduler, PeriodicCancelFromOwnCallbackStopsRecurrence) {
  Scheduler s;
  int fires = 0;
  EventHandle h;
  h = s.schedule_every(TimePoint::from_ns(5), Duration::nanoseconds(5), [&] {
    if (++fires == 3) h.cancel();
  });
  while (s.run_one()) {
  }
  EXPECT_EQ(fires, 3);
}

TEST(Scheduler, PendingCountExcludesTombstones) {
  Scheduler s;
  auto near = s.schedule_at(TimePoint::from_ns(10), [] {});
  auto far = s.schedule_at(TimePoint::from_ns(std::int64_t{1} << 30), [] {});
  EXPECT_EQ(s.pending_count(), 2u);
  EXPECT_EQ(s.tombstone_count(), 0u);
  far.cancel();
  EXPECT_EQ(s.pending_count(), 1u);
  EXPECT_EQ(s.tombstone_count(), 1u);
  near.cancel();
  EXPECT_EQ(s.pending_count(), 0u);
  EXPECT_EQ(s.tombstone_count(), 2u);
  EXPECT_TRUE(s.empty());
  // Dispatch reaps tombstones without running them.
  EXPECT_FALSE(s.run_one());
  EXPECT_EQ(s.tombstone_count(), 0u);
  EXPECT_EQ(s.events_executed(), 0u);
}

// ---------------------------------------------------------------------------
// Randomized differential test: the same randomly generated event trace runs
// through the Scheduler and through a minimal reference model, and the two
// dispatch sequences must be identical. Actions recursively schedule more
// work, cancel pending events, and mix horizons from same-instant to ~1 s.

// Reference engine: an ordered map keyed by (time, sequence). Cancel erases
// the entry; dispatch pops the smallest key.
class ReferenceScheduler {
 public:
  using Key = std::pair<std::int64_t, std::uint64_t>;

  class Handle {
   public:
    Handle() = default;
    Handle(ReferenceScheduler* owner, Key key) : owner_(owner), key_(key) {}
    void cancel() {
      if (owner_ != nullptr) owner_->queue_.erase(key_);
      owner_ = nullptr;
    }

   private:
    ReferenceScheduler* owner_ = nullptr;
    Key key_{};
  };

  Handle schedule_at(TimePoint at, std::function<void()> fn) {
    const Key key{at.ns(), next_seq_++};
    queue_.emplace(key, std::move(fn));
    return Handle{this, key};
  }

  TimePoint now() const { return now_; }
  bool empty() const { return queue_.empty(); }
  TimePoint next_event_time() const {
    return TimePoint::from_ns(queue_.begin()->first.first);
  }
  std::uint64_t events_executed() const { return events_executed_; }

  bool run_one() {
    if (queue_.empty()) return false;
    auto node = queue_.extract(queue_.begin());
    now_ = TimePoint::from_ns(node.key().first);
    ++events_executed_;
    node.mapped()();
    return true;
  }

  void advance_to(TimePoint t) { now_ = t; }

 private:
  std::map<Key, std::function<void()>> queue_;
  TimePoint now_ = TimePoint::origin();
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_executed_ = 0;
};

template <typename Engine>
struct TraceRunner {
  using Handle =
      decltype(std::declval<Engine&>().schedule_at(TimePoint{}, [] {}));

  Engine sched;
  Random rng{12345};  // same stream in every runner
  std::vector<std::uint64_t> dispatched;  // ids in dispatch order
  std::vector<Handle> cancellable;
  std::uint64_t next_id = 0;
  int live_budget = 0;

  Duration random_delay() {
    switch (rng.uniform(6)) {
      case 0: return Duration::zero();
      case 1: return Duration::nanoseconds(static_cast<std::int64_t>(rng.uniform(64)));
      case 2: return Duration::nanoseconds(static_cast<std::int64_t>(rng.uniform(1 << 12)));
      case 3: return Duration::nanoseconds(static_cast<std::int64_t>(rng.uniform(1 << 20)));
      case 4: return Duration::nanoseconds(static_cast<std::int64_t>(rng.uniform(1 << 26)));
      default:
        return Duration::nanoseconds(static_cast<std::int64_t>(rng.uniform(1u << 30)));
    }
  }

  void spawn_one() {
    const std::uint64_t id = next_id++;
    const auto at = sched.now() + random_delay();
    auto h = sched.schedule_at(at, [this, id] { on_fire(id); });
    if (rng.uniform(4) == 0) cancellable.push_back(h);
  }

  void on_fire(std::uint64_t id) {
    dispatched.push_back(id);
    // Recursively schedule 0-3 children while budget remains (supercritical,
    // so the trace runs until the budget is spent).
    const int children = static_cast<int>(rng.uniform(4));
    for (int i = 0; i < children && live_budget > 0; ++i, --live_budget) {
      spawn_one();
    }
    // Occasionally cancel a previously remembered event.
    if (!cancellable.empty() && rng.uniform(3) == 0) {
      const auto idx = static_cast<std::size_t>(rng.uniform(
          static_cast<std::uint32_t>(cancellable.size())));
      cancellable[idx].cancel();
      cancellable.erase(cancellable.begin() + static_cast<long>(idx));
    }
  }

  void run(int seed_events, int budget) {
    live_budget = budget;
    for (int i = 0; i < seed_events; ++i) spawn_one();
    while (sched.run_one()) {
    }
  }
};

TEST(Scheduler, DifferentialTraceMatchesReferenceModel) {
  TraceRunner<Scheduler> engine;
  TraceRunner<ReferenceScheduler> reference;
  engine.run(/*seed_events=*/64, /*budget=*/5000);
  reference.run(/*seed_events=*/64, /*budget=*/5000);
  ASSERT_GT(reference.dispatched.size(), 4000u);
  ASSERT_EQ(engine.dispatched.size(), reference.dispatched.size());
  for (std::size_t i = 0; i < engine.dispatched.size(); ++i) {
    ASSERT_EQ(engine.dispatched[i], reference.dispatched[i])
        << "diverged at index " << i;
  }
  EXPECT_EQ(engine.sched.now(), reference.sched.now());
  EXPECT_EQ(engine.sched.events_executed(), reference.sched.events_executed());
}

// Same differential check with run_until-style slicing: next_event_time()
// peeks and advance_to() moves the clock between events.
template <typename Engine>
std::vector<std::uint64_t> run_sliced() {
  Engine s;
  Random rng(99);
  std::vector<std::uint64_t> fired;
  std::uint64_t id = 0;
  std::function<void()> feeder = [&] {
    for (int i = 0; i < 3; ++i) {
      const auto delay =
          Duration::nanoseconds(static_cast<std::int64_t>(rng.uniform(1u << 27)));
      const std::uint64_t my = id++;
      s.schedule_at(s.now() + delay, [&fired, my] { fired.push_back(my); });
    }
    if (id < 600) {
      s.schedule_at(s.now() + Duration::nanoseconds(
                                  static_cast<std::int64_t>(rng.uniform(1u << 22))),
                    feeder);
    }
  };
  s.schedule_at(TimePoint::from_ns(0), feeder);
  TimePoint until = TimePoint::origin();
  for (int slice = 0; slice < 400; ++slice) {
    until = until + Duration::microseconds(2500);
    while (!s.empty() && s.next_event_time() <= until) s.run_one();
    if (s.now() < until) s.advance_to(until);
  }
  while (s.run_one()) {
  }
  return fired;
}

TEST(Scheduler, DifferentialRunUntilSlices) {
  const auto engine = run_sliced<Scheduler>();
  const auto reference = run_sliced<ReferenceScheduler>();
  ASSERT_EQ(engine.size(), 600u);
  ASSERT_EQ(engine.size(), reference.size());
  for (std::size_t i = 0; i < engine.size(); ++i) {
    ASSERT_EQ(engine[i], reference[i]) << "diverged at index " << i;
  }
}

TEST(Simulation, RunUntilStopsAtBoundaryAndAdvancesClock) {
  Simulation sim;
  std::vector<int> fired;
  sim.schedule(Duration::milliseconds(10), [&] { fired.push_back(1); });
  sim.schedule(Duration::milliseconds(30), [&] { fired.push_back(2); });
  sim.run_until(TimePoint::origin() + Duration::milliseconds(20));
  EXPECT_EQ(fired, std::vector<int>{1});
  EXPECT_EQ(sim.now(), TimePoint::origin() + Duration::milliseconds(20));
  sim.run();
  EXPECT_EQ(fired, (std::vector<int>{1, 2}));
}

TEST(Simulation, EventAtExactBoundaryRuns) {
  Simulation sim;
  bool ran = false;
  sim.schedule(Duration::seconds(1), [&] { ran = true; });
  sim.run_until(TimePoint::origin() + Duration::seconds(1));
  EXPECT_TRUE(ran);
}

TEST(Simulation, StopHaltsRun) {
  Simulation sim;
  int count = 0;
  for (int i = 1; i <= 10; ++i) {
    sim.schedule(Duration::nanoseconds(i), [&] {
      if (++count == 3) sim.stop();
    });
  }
  sim.run();
  EXPECT_EQ(count, 3);
  sim.run();  // resumes
  EXPECT_EQ(count, 10);
}

TEST(Simulation, RunForAdvancesRelativeToNow) {
  Simulation sim;
  sim.run_for(Duration::seconds(2));
  EXPECT_EQ(sim.now().to_seconds(), 2.0);
  sim.run_for(Duration::seconds(3));
  EXPECT_EQ(sim.now().to_seconds(), 5.0);
}

}  // namespace
}  // namespace barb::sim
