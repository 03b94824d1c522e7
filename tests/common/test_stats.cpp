#include "common/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <thread>
#include <vector>

#include "common/clock.hpp"

namespace sbft {
namespace {

TEST(Counter, AddAndReset) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Counter, ConcurrentAddsAreNotLost) {
  Counter c;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) c.add();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(SimClock, AdvanceMonotonic) {
  SimClock clock;
  EXPECT_EQ(clock.now(), 0u);
  clock.advance_to(100);
  EXPECT_EQ(clock.now(), 100u);
  clock.advance_to(50);  // never goes backwards
  EXPECT_EQ(clock.now(), 100u);
}

TEST(SteadyClock, Monotonic) {
  SteadyClock clock;
  const Micros a = clock.now();
  const Micros b = clock.now();
  EXPECT_GE(b, a);
}

// Hot counters (VerifyCache hits/misses, pool workers) must each own a
// cache line: adjacent counters sharing one would false-share under
// concurrent add() from worker threads.
static_assert(alignof(Counter) >= kCacheLineBytes);
static_assert(sizeof(Counter) >= kCacheLineBytes);

TEST(LatencyHistogram, EmptyIsZero) {
  LatencyHistogram hist;
  EXPECT_EQ(hist.count(), 0u);
  EXPECT_EQ(hist.quantile(0.5), 0u);
  EXPECT_EQ(hist.mean_us(), 0.0);
  EXPECT_EQ(hist.max_us(), 0u);
  EXPECT_TRUE(hist.buckets().empty());
}

TEST(LatencyHistogram, SmallValuesAreExact) {
  LatencyHistogram hist;
  for (Micros v : {0u, 1u, 1u, 2u, 100u, 127u}) hist.record(v);
  EXPECT_EQ(hist.count(), 6u);
  EXPECT_EQ(hist.max_us(), 127u);
  EXPECT_EQ(hist.quantile(0.0), 0u);
  EXPECT_EQ(hist.quantile(1.0), 127u);
  // Sub-128 us values live in exact 1 us bins; the median of
  // {0,1,1,2,100,127} under the recorder's nearest-rank rounding is the
  // rank-3 sample.
  EXPECT_EQ(hist.quantile(0.5), 2u);
}

TEST(LatencyHistogram, QuantilesWithinBucketResolution) {
  LatencyHistogram hist;
  for (Micros v = 1; v <= 100'000; ++v) hist.record(v);
  // Log buckets hold ~1/16 of a power of two: quantiles must land within
  // ~7% of the exact answer.
  const auto close = [](Micros got, Micros want) {
    const double rel = std::abs(static_cast<double>(got) -
                                static_cast<double>(want)) /
                       static_cast<double>(want);
    return rel < 0.07;
  };
  EXPECT_TRUE(close(hist.quantile(0.50), 50'000)) << hist.quantile(0.50);
  EXPECT_TRUE(close(hist.quantile(0.95), 95'000)) << hist.quantile(0.95);
  EXPECT_TRUE(close(hist.quantile(0.99), 99'000)) << hist.quantile(0.99);
  EXPECT_EQ(hist.max_us(), 100'000u);
  const double mean = hist.mean_us();
  EXPECT_GT(mean, 49'000.0);
  EXPECT_LT(mean, 51'000.0);
}

TEST(LatencyHistogram, BucketsCoverAllSamplesInOrder) {
  LatencyHistogram hist;
  for (Micros v : {5u, 130u, 1'000u, 50'000u, 50'001u}) hist.record(v);
  const auto buckets = hist.buckets();
  std::uint64_t covered = 0;
  Micros last_upper = 0;
  for (const auto& b : buckets) {
    EXPECT_LT(b.lower_us, b.upper_us);
    EXPECT_GE(b.lower_us, last_upper);
    last_upper = b.upper_us;
    covered += b.count;
  }
  EXPECT_EQ(covered, 5u);
}

TEST(LatencyHistogram, HugeValuesDoNotOverflow) {
  LatencyHistogram hist;
  hist.record(std::numeric_limits<Micros>::max());
  hist.record(1u << 30);
  EXPECT_EQ(hist.count(), 2u);
  EXPECT_EQ(hist.max_us(), std::numeric_limits<Micros>::max());
  // The top bucket spans [2^63 + 15*2^59, 2^64): its exclusive upper bound
  // must saturate instead of wrapping to 0, the midpoint must stay inside
  // the bucket, and the bucket list must keep lower < upper throughout.
  const Micros top_lower = (Micros{1} << 63) + (Micros{15} << 59);
  EXPECT_GE(hist.quantile(1.0), top_lower);
  for (const auto& b : hist.buckets()) {
    EXPECT_LT(b.lower_us, b.upper_us);
  }
}

TEST(LatencyHistogram, ConcurrentRecordsAreNotLost) {
  LatencyHistogram hist;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&hist, t] {
      for (int i = 0; i < kPerThread; ++i) {
        hist.record(static_cast<Micros>(t * 1'000 + i % 977));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(hist.count(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(Counter, AdjacentCountersDoNotShareACacheLine) {
  struct HotPair {
    Counter a;
    Counter b;
  } pair;
  const auto delta =
      reinterpret_cast<const char*>(&pair.b) -
      reinterpret_cast<const char*>(&pair.a);
  EXPECT_GE(delta, static_cast<std::ptrdiff_t>(kCacheLineBytes));
}

}  // namespace
}  // namespace sbft
