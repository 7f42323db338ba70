// SweepRunner: shared-nothing parallel execution of independent experiment
// points.
//
// The paper's methodology is a grid sweep — (rule depth x flood rate x
// repetition), averaged — and every point runs in its own freshly seeded
// Simulation (see core/experiments.h). Points therefore share *nothing*:
// each task builds its own Scheduler, Testbed, and MetricRegistry, and the
// only process-wide mutable state on the hot path, the frame BufferPool, is
// thread-local (src/net/frame_buffer.h). That makes the sweep embarrassingly
// parallel, and the runner exploits it with a plain thread pool.
//
// Determinism contract — artifacts are byte-identical for any worker count:
//  * Every point's RNG seed is derived as mix(base_seed, point_index), never
//    from "the previous point's state", so a point computes the same result
//    no matter which worker runs it or in what order points complete.
//  * Results land in a slot-per-point vector (slot = enqueue index); callers
//    aggregate and emit artifacts by iterating slots in index order, so the
//    collection order is independent of the completion order.
//  * jobs == 1 runs every task inline on the calling thread in index order —
//    the exact serial path, no threads spawned.
//
// Error contract: a throwing task never takes down other points. Exceptions
// are captured per slot while the sweep drains; afterwards the lowest-index
// one is rethrown (deterministically, regardless of completion order).
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

namespace barb::core {

// Deterministic seed for sweep point `point_index` under `base_seed`:
// splitmix64-style avalanche of the pair, so neighbouring indices yield
// statistically independent xoshiro streams (sim::Random re-expands the
// result through splitmix64 again). Stable across platforms and releases —
// recorded artifacts depend on it.
std::uint64_t derive_point_seed(std::uint64_t base_seed,
                                std::uint64_t point_index);

// One task's identity within a sweep.
struct SweepPoint {
  std::size_t index = 0;    // slot in the result vector
  std::uint64_t seed = 0;   // derive_point_seed(base_seed, index)
};

// Worker count resolution: `requested` >= 1 is taken as-is; 0 means "one
// worker per hardware thread"; negative falls back to 1 (serial).
int resolve_jobs(int requested);

// Parses `--jobs N` / `--jobs=N` from argv. Absent that, $BARB_JOBS; absent
// that, 1 — parallelism is strictly opt-in, and `--jobs 1` is the exact
// serial path. The returned value has been through resolve_jobs().
int jobs_from_cli(int argc, char** argv);

class SweepRunner {
 public:
  struct Options {
    int jobs = 1;                 // resolved through resolve_jobs()
    std::uint64_t base_seed = 1;  // root of every point's derived seed
  };

  explicit SweepRunner(Options options)
      : jobs_(resolve_jobs(options.jobs)), base_seed_(options.base_seed) {}
  SweepRunner() : SweepRunner(Options{}) {}

  int jobs() const { return jobs_; }
  std::uint64_t base_seed() const { return base_seed_; }

  // Runs every task exactly once and returns their results slot-per-point
  // (result i came from tasks[i]). Tasks must be self-contained: anything
  // they touch concurrently must be owned by the task or immutable.
  template <typename R>
  std::vector<R> run(std::vector<std::function<R(const SweepPoint&)>> tasks) {
    std::vector<R> results(tasks.size());
    for_each_point(tasks.size(), [&](const SweepPoint& point) {
      results[point.index] = tasks[point.index](point);
    });
    return results;
  }

  // Grid form: one function applied to indices [0, count). The function
  // receives the point (index + derived seed) and its result lands in
  // slot `index`.
  template <typename R>
  std::vector<R> run_indexed(std::size_t count,
                             std::function<R(const SweepPoint&)> fn) {
    std::vector<R> results(count);
    for_each_point(count, [&](const SweepPoint& point) {
      results[point.index] = fn(point);
    });
    return results;
  }

  // Core loop shared by the typed wrappers: invokes `body` once per point,
  // inline and in index order when jobs()==1, otherwise from a pool of
  // min(jobs, count) workers pulling indices off a shared atomic counter.
  // Rethrows the lowest-index captured exception after every point ran.
  template <typename Body>
  void for_each_point(std::size_t count, Body&& body) {
    std::vector<std::exception_ptr> errors(count);
    auto run_one = [&](std::size_t i) {
      const SweepPoint point{i, derive_point_seed(base_seed_, i)};
      try {
        body(point);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    };

    const std::size_t workers =
        count < static_cast<std::size_t>(jobs_) ? count
                                                : static_cast<std::size_t>(jobs_);
    if (workers <= 1) {
      for (std::size_t i = 0; i < count; ++i) run_one(i);
    } else {
      std::atomic<std::size_t> next{0};
      std::vector<std::thread> pool;
      pool.reserve(workers);
      for (std::size_t w = 0; w < workers; ++w) {
        pool.emplace_back([&] {
          for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
               i < count; i = next.fetch_add(1, std::memory_order_relaxed)) {
            run_one(i);
          }
        });
      }
      for (auto& t : pool) t.join();
    }

    for (auto& e : errors) {
      if (e) std::rethrow_exception(e);
    }
  }

 private:
  int jobs_;
  std::uint64_t base_seed_;
};

}  // namespace barb::core
