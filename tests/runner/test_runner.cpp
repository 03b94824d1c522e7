// Staged ordered-execution runner: ordering and drain guarantees of the
// serial reference and the parallel spin implementation, backpressure when
// the slot ring fills, observability counters, the Gauge primitive, and
// the AutoTuner's windowed grow/shrink controller.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <thread>
#include <vector>

#include "common/stats.hpp"
#include "runtime/runner/runner.hpp"
#include "runtime/runner/tuning.hpp"

namespace sbft::runtime::runner {
namespace {

/// Submits `n` units whose prologues record concurrent activity and whose
/// epilogues append their index; returns the epilogue order.
[[nodiscard]] std::vector<std::size_t> run_indexed(OrderedRunner& runner,
                                                   std::size_t n) {
  std::vector<std::size_t> order;
  order.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    runner.submit([i, &order]() -> Epilogue {
      // Uneven prologue work so parallel workers finish out of order.
      volatile std::uint64_t sink = 0;
      for (std::size_t k = 0; k < (i % 7) * 97; ++k) sink = sink + k;
      return [i, &order] { order.push_back(i); };
    });
  }
  runner.drain();
  return order;
}

[[nodiscard]] std::vector<std::size_t> iota(std::size_t n) {
  std::vector<std::size_t> v(n);
  std::iota(v.begin(), v.end(), std::size_t{0});
  return v;
}

TEST(SyncRunner, RunsInlineInSubmissionOrder) {
  SyncOrderedRunner runner;
  EXPECT_EQ(runner.workers(), 0u);
  EXPECT_EQ(run_indexed(runner, 100), iota(100));
  EXPECT_EQ(runner.queue_depth(), 0u);

  const RunnerStats stats = runner.stats();
  EXPECT_EQ(stats.submitted, 100u);
  EXPECT_EQ(stats.drained, 100u);
  EXPECT_EQ(stats.queue_depth, 0u);
  EXPECT_EQ(stats.prologue_us.count, 100u);
  EXPECT_EQ(stats.epilogue_us.count, 100u);

  runner.reset_stats();
  EXPECT_EQ(runner.stats().submitted, 0u);
}

TEST(SpinRunner, EpiloguesInSubmissionOrderAtEveryWorkerCount) {
  for (const std::size_t workers : {1u, 4u, 8u}) {
    SpinOrderedRunner runner(workers);
    EXPECT_EQ(runner.workers(), workers);
    EXPECT_EQ(run_indexed(runner, 2'000), iota(2'000)) << workers;
    EXPECT_EQ(runner.queue_depth(), 0u) << workers;
  }
}

TEST(SpinRunner, EpiloguesRunOnTheDrainingThread) {
  SpinOrderedRunner runner(4);
  const auto caller = std::this_thread::get_id();
  std::atomic<int> on_caller{0};
  for (int i = 0; i < 64; ++i) {
    runner.submit([caller, &on_caller]() -> Epilogue {
      return [caller, &on_caller] {
        if (std::this_thread::get_id() == caller) ++on_caller;
      };
    });
  }
  runner.drain();
  EXPECT_EQ(on_caller.load(), 64);
}

TEST(SpinRunner, ProloguesLeaveTheSubmittingThread) {
  // With workers present, at least one prologue must run off-thread (all of
  // them, unless backpressure forces inline draining — the ring is large
  // enough here that it never does).
  SpinOrderedRunner runner(2);
  const auto caller = std::this_thread::get_id();
  std::atomic<int> off_caller{0};
  for (int i = 0; i < 32; ++i) {
    runner.submit([caller, &off_caller]() -> Epilogue {
      if (std::this_thread::get_id() != caller) ++off_caller;
      return [] {};
    });
  }
  runner.drain();
  EXPECT_GT(off_caller.load(), 0);
}

TEST(SpinRunner, TinyRingBackpressuresWithoutDeadlockOrReordering) {
  // Capacity far below the submission count: submit() must retire finished
  // slots inline (in order) instead of deadlocking or dropping work.
  SpinOrderedRunner runner(3, /*capacity=*/4);
  EXPECT_EQ(run_indexed(runner, 500), iota(500));
  const RunnerStats stats = runner.stats();
  EXPECT_EQ(stats.submitted, 500u);
  EXPECT_EQ(stats.drained, 500u);
  EXPECT_LE(stats.queue_peak, 4u);
}

TEST(SpinRunner, StatsCountAndDrainToZero) {
  SpinOrderedRunner runner(4);
  (void)run_indexed(runner, 300);
  const RunnerStats stats = runner.stats();
  EXPECT_EQ(stats.submitted, 300u);
  EXPECT_EQ(stats.drained, 300u);
  EXPECT_EQ(stats.queue_depth, 0u);
  EXPECT_GE(stats.queue_peak, 1u);
  EXPECT_EQ(stats.prologue_us.count, 300u);
  EXPECT_EQ(stats.epilogue_us.count, 300u);
  runner.reset_stats();
  EXPECT_EQ(runner.stats().submitted, 0u);
  EXPECT_EQ(runner.stats().queue_peak, 0u);
}

TEST(SpinRunner, DrainOnEmptyQueueIsANoop) {
  SpinOrderedRunner runner(2);
  runner.drain();
  runner.drain();
  EXPECT_EQ(runner.stats().drained, 0u);
}

TEST(MakeRunner, AtMostOneWorkerIsSerial) {
  for (const std::size_t workers : {0u, 1u}) {
    const auto runner = make_runner(workers);
    EXPECT_NE(dynamic_cast<SyncOrderedRunner*>(runner.get()), nullptr)
        << workers;
    EXPECT_EQ(runner->workers(), 0u) << workers;
    // Serial means the prologue runs on the submitting thread.
    const auto caller = std::this_thread::get_id();
    bool on_caller = false;
    runner->submit([caller, &on_caller]() -> Epilogue {
      on_caller = std::this_thread::get_id() == caller;
      return [] {};
    });
    runner->drain();
    EXPECT_TRUE(on_caller) << workers;
  }
  for (const std::size_t workers : {2u, 3u}) {
    const auto runner = make_runner(workers);
    EXPECT_NE(dynamic_cast<SpinOrderedRunner*>(runner.get()), nullptr)
        << workers;
    EXPECT_EQ(runner->workers(), workers);
  }
}

// -------------------------------------------------------------- Gauge

TEST(Gauge, TracksValueAndPeak) {
  Gauge g;
  EXPECT_EQ(g.value(), 0u);
  g.add(5);
  g.add(7);
  EXPECT_EQ(g.value(), 12u);
  EXPECT_EQ(g.peak(), 12u);
  g.sub(10);
  EXPECT_EQ(g.value(), 2u);
  EXPECT_EQ(g.peak(), 12u);  // peak is sticky
  g.set(40);
  EXPECT_EQ(g.value(), 40u);
  EXPECT_EQ(g.peak(), 40u);
  g.reset();
  EXPECT_EQ(g.value(), 0u);
  EXPECT_EQ(g.peak(), 0u);
}

TEST(Gauge, PeakSurvivesConcurrentUpdates) {
  Gauge g;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&g] {
      for (int i = 0; i < 10'000; ++i) {
        g.add(3);
        g.sub(3);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(g.value(), 0u);
  EXPECT_GE(g.peak(), 3u);
  EXPECT_LE(g.peak(), 12u);
}

// ---------------------------------------------------------- AutoTuner

TEST(AutoTuner, GrowsTowardThroughputRegimeUnderBacklog) {
  TuningLimits limits;
  AutoTuner tuner(limits, /*batch0=*/64, /*depth0=*/1, /*read_batch0=*/16);
  Micros now = 0;
  // Sustained backlog above the high watermark: every window closes with a
  // grow until all knobs pin at their maxima.
  bool changed = false;
  for (int w = 0; w < 10; ++w) {
    now += limits.interval_us;
    changed = tuner.observe(/*backlog=*/limits.high_watermark + 100, now);
  }
  EXPECT_EQ(tuner.batch_max(), limits.batch_max);
  EXPECT_EQ(tuner.pipeline_depth(), limits.depth_max);
  EXPECT_EQ(tuner.read_batch_max(), limits.read_batch_max);
  EXPECT_FALSE(changed);  // pinned at the clamp: no further change
  EXPECT_GE(tuner.stats().grows, 4u);
  EXPECT_EQ(tuner.stats().shrinks, 0u);
}

TEST(AutoTuner, ShrinksTowardLatencyRegimeWhenIdle) {
  TuningLimits limits;
  AutoTuner tuner(limits, /*batch0=*/800, /*depth0=*/8, /*read_batch0=*/128);
  Micros now = 0;
  for (int w = 0; w < 10; ++w) {
    now += limits.interval_us;
    (void)tuner.observe(/*backlog=*/0, now);
  }
  EXPECT_EQ(tuner.batch_max(), limits.batch_min);
  EXPECT_EQ(tuner.pipeline_depth(), limits.depth_min);
  EXPECT_EQ(tuner.read_batch_max(), limits.read_batch_min);
  EXPECT_GE(tuner.stats().shrinks, 4u);
}

TEST(AutoTuner, HoldsSteadyBetweenWatermarks) {
  TuningLimits limits;
  AutoTuner tuner(limits, /*batch0=*/200, /*depth0=*/4, /*read_batch0=*/32);
  Micros now = 0;
  for (int w = 0; w < 6; ++w) {
    now += limits.interval_us;
    EXPECT_FALSE(tuner.observe(
        (limits.low_watermark + limits.high_watermark) / 2, now));
  }
  EXPECT_EQ(tuner.batch_max(), 200u);
  EXPECT_EQ(tuner.pipeline_depth(), 4u);
  EXPECT_EQ(tuner.read_batch_max(), 32u);
  EXPECT_EQ(tuner.stats().grows, 0u);
  EXPECT_EQ(tuner.stats().shrinks, 0u);
}

TEST(AutoTuner, ReactsToPeakNotWindowEndBacklog) {
  // A burst in the middle of the window must trigger the grow even if the
  // backlog drains to zero by window end (peak controller, not sampling).
  TuningLimits limits;
  AutoTuner tuner(limits, /*batch0=*/64, /*depth0=*/2, /*read_batch0=*/16);
  EXPECT_FALSE(tuner.observe(0, 1));  // anchors the first window
  (void)tuner.observe(limits.high_watermark + 50, limits.interval_us / 2);
  EXPECT_TRUE(tuner.observe(0, limits.interval_us + 1));
  EXPECT_EQ(tuner.batch_max(), 128u);
  EXPECT_EQ(tuner.pipeline_depth(), 3u);
}

TEST(AutoTuner, WindowsAreVirtualTime) {
  TuningLimits limits;
  AutoTuner tuner(limits, 64, 2, 16);
  // The first observation anchors the window; the flood of observations
  // inside it closes nothing, and the first observation past the end
  // closes it exactly once.
  for (Micros t = 1; t <= limits.interval_us; t += 1'000) {
    EXPECT_FALSE(tuner.observe(limits.high_watermark + 1, t));
  }
  EXPECT_TRUE(
      tuner.observe(limits.high_watermark + 1, limits.interval_us + 1));
  EXPECT_EQ(tuner.stats().windows, 1u);
}

}  // namespace
}  // namespace sbft::runtime::runner
