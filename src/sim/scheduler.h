// Event engine: a binary min-heap over slab-pooled event records.
//
// The simulator executes 4-6 scheduled events per simulated frame, and a
// fig3b sweep pushes tens of millions of frames — so the scheduler's fixed
// cost per event bounds how deep and dense the paper sweeps can go. This
// engine is built around three ideas:
//
//   1. Slab-pooled intrusive records. Every scheduled event lives in a
//      pooled EventRecord that carries its own cancellation flag and a
//      generation counter; EventHandle is a (record, generation) pair, so
//      cancellation needs no per-event shared_ptr control block. Records
//      recycle through a free list — steady-state scheduling performs zero
//      heap allocations (gated by the microbench_scheduler ctest).
//
//   2. A compact binary heap. Heap entries are 24-byte (time, sequence,
//      record) triples, so sift comparisons never touch the records.
//
//   3. Allocation-free callbacks. Callbacks are InlineCallback values whose
//      56-byte small-buffer fits every capture the simulator schedules.
//
// Determinism contract (checked against a reference model in
// tests/sim/scheduler_test.cc): events are dispatched in strict
// (time, scheduling-sequence) order, so same-instant events fire in the
// order they were scheduled.
//
// Cancellation: a cancelled record becomes a tombstone that stays in the
// heap until it surfaces at the top (where it is reaped) or until tombstones
// number at least 64 and make up more than half the heap, when the heap is
// compacted wholesale — so a flood's worth of cancelled TCP retransmit
// timers cannot bloat it. pending_count() counts live events only;
// tombstone_count() reports lingering cancelled entries.
//
// Threading: a Scheduler is single-threaded by construction, one per
// Simulation. Parallel sweeps give each worker its own Simulation, so slabs
// are shared-nothing (same model as the thread-local net::BufferPool).
// EventHandles must not outlive their Scheduler: the slab owns the records.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "sim/inline_callback.h"
#include "sim/time.h"
#include "util/assert.h"

namespace barb::sim {

class Scheduler;

namespace detail {

enum class EventState : std::uint8_t { kFree, kQueued, kRunning };

// One slab cell: 32 bytes of bookkeeping + a 64-byte InlineCallback. The
// dispatch key (time, sequence) lives in the heap entry, not here.
struct EventRecord {
  Duration period;                   // zero => one-shot
  EventRecord* next_free = nullptr;  // free-list link
  Scheduler* owner = nullptr;
  std::uint32_t gen = 0;  // bumped on recycle; stale handles go inert
  EventState state = EventState::kFree;
  bool cancelled = false;
  InlineCallback fn;
};

static_assert(sizeof(EventRecord) == 96, "32 bytes of bookkeeping + callback");

}  // namespace detail

// Cancellation token for a scheduled event. Default-constructed handles are
// inert. Cancelling an already-fired or already-cancelled event is a no-op,
// so components can cancel unconditionally in destructors. For periodic
// events (schedule_every) the handle stays valid across firings; cancel()
// stops the recurrence. Handles must not be used after the Scheduler that
// issued them is destroyed.
class EventHandle {
 public:
  EventHandle() = default;

  void cancel();

  // True if the event is still queued (or currently executing) and not
  // cancelled.
  bool pending() const {
    return rec_ != nullptr && rec_->gen == gen_ && !rec_->cancelled;
  }

 private:
  friend class Scheduler;
  EventHandle(detail::EventRecord* rec, std::uint32_t gen)
      : rec_(rec), gen_(gen) {}

  detail::EventRecord* rec_ = nullptr;
  std::uint32_t gen_ = 0;
};

// Live counters for the sched.* telemetry bridge (Testbed keeps these out of
// figure timelines, like pool.*, to preserve byte-identical artifacts).
struct SchedulerStats {
  std::size_t pending = 0;       // live scheduled events
  std::size_t tombstones = 0;    // cancelled heap entries not yet reaped
  std::size_t slab_records = 0;  // slab capacity (live + free records)
  std::uint64_t events_executed = 0;
  std::uint64_t compactions = 0;  // heap tombstone sweeps
};

class Scheduler {
 public:
  using Callback = InlineCallback;

  Scheduler() = default;

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  // Schedules `fn` once at absolute time `at` (must not be in the past).
  EventHandle schedule_at(TimePoint at, Callback fn) {
    return schedule_impl(at, Duration::zero(), std::move(fn));
  }

  // Schedules `fn` at `first`, then every `period` after each firing, reusing
  // one slab record for the whole recurrence. The re-arm happens after the
  // callback returns and draws a fresh sequence number, so dispatch order is
  // identical to a callback that re-schedules itself as its last action.
  EventHandle schedule_every(TimePoint first, Duration period, Callback fn) {
    BARB_ASSERT_MSG(period.ns() > 0, "periodic events need a positive period");
    return schedule_impl(first, period, std::move(fn));
  }

  TimePoint now() const { return now_; }
  bool empty() const { return pending_ == 0; }
  // Live scheduled events (cancelled entries awaiting reap are excluded; see
  // tombstone_count()).
  std::size_t pending_count() const { return pending_; }
  std::size_t tombstone_count() const { return tombstones_; }
  std::uint64_t events_executed() const { return events_executed_; }

  SchedulerStats stats() const {
    SchedulerStats s;
    s.pending = pending_;
    s.tombstones = tombstones_;
    s.slab_records = chunks_.size() * kChunkRecords;
    s.events_executed = events_executed_;
    s.compactions = compactions_;
    return s;
  }

  // Time of the earliest live pending event. Reaps cancelled entries off the
  // heap top as a side effect (which is why it is not const); the result
  // never includes tombstones, so run_until() cannot overshoot its boundary
  // chasing a cancelled placeholder.
  TimePoint next_event_time() {
    BARB_ASSERT(!empty());
    purge_top();
    return heap_.front().at;
  }

  // Pops and runs the earliest live event; returns false if none remain.
  bool run_one() {
    purge_top();
    if (heap_.empty()) return false;
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    const Entry e = heap_.back();
    heap_.pop_back();
    --pending_;
    BARB_ASSERT(e.at >= now_);
    now_ = e.at;
    detail::EventRecord* r = e.rec;
    r->state = detail::EventState::kRunning;
    ++events_executed_;
    r->fn();
    if (r->period.ns() > 0 && !r->cancelled) {
      // Periodic re-arm: same record, fresh sequence number (allocated after
      // the callback ran, so anything the callback scheduled fires first
      // among same-instant peers — exactly like a self-rescheduling loop).
      push(now_ + r->period, r);
    } else {
      free_record(r);
    }
    return true;
  }

  // Advances the clock without running anything (used by run_until when no
  // event is due by `t`).
  void advance_to(TimePoint t) {
    BARB_ASSERT(t >= now_);
    now_ = t;
  }

 private:
  friend class EventHandle;

  static constexpr std::size_t kChunkRecords = 128;  // 12 KiB per chunk
  struct Chunk {
    std::array<detail::EventRecord, kChunkRecords> recs;
  };

  // Compaction threshold: at least this many tombstones, and more than half
  // the heap.
  static constexpr std::size_t kCompactMinTombstones = 64;

  struct Entry {
    TimePoint at;
    std::uint64_t seq;
    detail::EventRecord* rec;
  };
  // Strict total order over (at, seq): sequence numbers are unique, so the
  // heap's pop sequence is fully determined.
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  EventHandle schedule_impl(TimePoint at, Duration period, Callback fn) {
    BARB_ASSERT_MSG(at >= now_, "cannot schedule into the past");
    detail::EventRecord* r = alloc_record();
    r->period = period;
    r->cancelled = false;
    r->fn = std::move(fn);
    push(at, r);
    return EventHandle{r, r->gen};
  }

  void push(TimePoint at, detail::EventRecord* r) {
    r->state = detail::EventState::kQueued;
    heap_.push_back(Entry{at, next_seq_++, r});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
    ++pending_;
  }

  // Reaps cancelled records off the heap top.
  void purge_top() {
    while (!heap_.empty() && heap_.front().rec->cancelled) {
      std::pop_heap(heap_.begin(), heap_.end(), Later{});
      free_record(heap_.back().rec);
      heap_.pop_back();
      --tombstones_;
    }
  }

  // EventHandle::cancel with a verified generation lands here.
  void cancel_record(detail::EventRecord* r) {
    switch (r->state) {
      case detail::EventState::kQueued:
        if (!r->cancelled) {
          r->cancelled = true;
          --pending_;
          ++tombstones_;
          maybe_compact();
        }
        break;
      case detail::EventState::kRunning:
        // Cannot un-run the current firing; for periodic events this stops
        // the recurrence when the callback returns.
        r->cancelled = true;
        break;
      case detail::EventState::kFree:
        BARB_ASSERT_MSG(false, "generation check should have caught this");
        break;
    }
  }

  // Sweeps cancelled entries out of the heap once they outnumber live ones
  // (and are numerous enough to matter), so long-lived cancelled timers —
  // TCP retransmit timers under flood — cannot bloat the heap.
  void maybe_compact() {
    if (tombstones_ < kCompactMinTombstones ||
        tombstones_ * 2 <= heap_.size()) {
      return;
    }
    auto out = heap_.begin();
    for (Entry& e : heap_) {
      if (e.rec->cancelled) {
        free_record(e.rec);
      } else {
        *out++ = e;
      }
    }
    heap_.erase(out, heap_.end());
    std::make_heap(heap_.begin(), heap_.end(), Later{});
    tombstones_ = 0;
    ++compactions_;
  }

  detail::EventRecord* alloc_record() {
    if (free_list_ == nullptr) grow_slab();
    detail::EventRecord* r = free_list_;
    free_list_ = r->next_free;
    return r;
  }

  void free_record(detail::EventRecord* r) {
    r->fn.reset();
    r->state = detail::EventState::kFree;
    ++r->gen;  // handles issued for the old incarnation go inert
    r->next_free = free_list_;
    free_list_ = r;
  }

  void grow_slab() {
    chunks_.push_back(std::make_unique<Chunk>());
    Chunk& c = *chunks_.back();
    for (auto it = c.recs.rbegin(); it != c.recs.rend(); ++it) {
      it->owner = this;
      it->next_free = free_list_;
      free_list_ = &*it;
    }
  }

  std::vector<Entry> heap_;  // min-heap via push_heap/pop_heap
  std::size_t tombstones_ = 0;

  std::vector<std::unique_ptr<Chunk>> chunks_;
  detail::EventRecord* free_list_ = nullptr;

  TimePoint now_ = TimePoint::origin();
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_executed_ = 0;
  std::size_t pending_ = 0;
  std::uint64_t compactions_ = 0;
};

inline void EventHandle::cancel() {
  if (rec_ != nullptr && rec_->gen == gen_) rec_->owner->cancel_record(rec_);
  rec_ = nullptr;
  gen_ = 0;
}

}  // namespace barb::sim
