// Latency measurement used by the load drivers, plus the lightweight
// event counters exported by hot-path subsystems (e.g. the
// signature-verification cache).
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

#include "common/clock.hpp"

namespace sbft {

/// One cache line, for padding hot atomics. Hardcoded rather than
/// std::hardware_destructive_interference_size: the standard constant is an
/// ABI hazard (GCC warns when it leaks into public headers) and 64 bytes is
/// correct for every x86-64 and the common AArch64 parts this targets.
inline constexpr std::size_t kCacheLineBytes = 64;

/// Monotonic event counter. Thread-safe (relaxed atomics: counters are
/// statistics, not synchronization). Non-copyable, like the atomic it
/// wraps — snapshot value() into plain integers instead.
///
/// Cache-line aligned: the VerifyCache hit/miss/failure/eviction counters
/// and the VerifierPool workers bump these concurrently from every worker
/// thread; without the alignment, adjacent counters declared as consecutive
/// members share a line and every add() ping-pongs that line between cores
/// (false sharing). Padding each counter to its own line keeps the hot path
/// a local RMW.
class alignas(kCacheLineBytes) Counter {
 public:
  Counter() = default;

  void add(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Instantaneous level with a high-water mark (queue depths, in-flight
/// work). Thread-safe; like Counter, the atomics are statistics, not
/// synchronization, except the peak update which uses a CAS loop so two
/// concurrent set() calls can never lose the larger observation.
class alignas(kCacheLineBytes) Gauge {
 public:
  Gauge() = default;

  void set(std::uint64_t v) noexcept {
    value_.store(v, std::memory_order_relaxed);
    std::uint64_t peak = peak_.load(std::memory_order_relaxed);
    while (v > peak &&
           !peak_.compare_exchange_weak(peak, v, std::memory_order_relaxed)) {
    }
  }
  void add(std::uint64_t n = 1) noexcept {
    const std::uint64_t v =
        value_.fetch_add(n, std::memory_order_relaxed) + n;
    std::uint64_t peak = peak_.load(std::memory_order_relaxed);
    while (v > peak &&
           !peak_.compare_exchange_weak(peak, v, std::memory_order_relaxed)) {
    }
  }
  void sub(std::uint64_t n = 1) noexcept {
    value_.fetch_sub(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t peak() const noexcept {
    return peak_.load(std::memory_order_relaxed);
  }
  void reset() noexcept {
    value_.store(0, std::memory_order_relaxed);
    peak_.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
  std::atomic<std::uint64_t> peak_{0};
};

/// Latency summary (count/mean/percentiles) of a LatencyHistogram.
struct LatencySummary {
  std::size_t count{0};
  double mean_us{0.0};
  Micros p50_us{0};
  Micros p95_us{0};
  Micros p99_us{0};
  Micros max_us{0};
};

/// Fixed-memory latency histogram: logarithmic buckets with ~4% relative
/// resolution, so a sustained workload run records millions of samples in
/// a few KiB. Thread-safe recording (the threaded workload driver records from
/// many ThreadNetwork consumer threads).
class LatencyHistogram {
 public:
  LatencyHistogram();

  void record(Micros sample_us);

  /// Quantile in [0, 1]; returns the representative value (bucket
  /// midpoint) of the bucket containing it. 0 with no samples.
  [[nodiscard]] Micros quantile(double q) const;
  [[nodiscard]] std::uint64_t count() const;
  [[nodiscard]] double mean_us() const;
  [[nodiscard]] Micros max_us() const;

  struct Bucket {
    Micros lower_us{0};  // inclusive
    Micros upper_us{0};  // exclusive
    std::uint64_t count{0};
  };
  /// Non-empty buckets in ascending order (JSON export).
  [[nodiscard]] std::vector<Bucket> buckets() const;

  /// Count/mean/percentile summary (quantiles are bucket-resolution, ~4%
  /// relative error).
  [[nodiscard]] LatencySummary summarize() const;

  void reset();

 private:
  // Buckets: [0..kLinear) are exact 1 us bins; above that, kSubBuckets
  // log-spaced bins per power of two.
  static constexpr std::uint64_t kLinear = 128;
  static constexpr std::uint64_t kSubBuckets = 16;
  // 128 linear bins + 16 sub-buckets for each power of two from 2^7 up to
  // 2^63 — covers any Micros value without overflow or clamping surprises.
  static constexpr std::size_t kBucketCount = 128 + (63 - 7 + 1) * 16;

  [[nodiscard]] static std::size_t bucket_index(Micros v) noexcept;
  [[nodiscard]] static Micros bucket_lower(std::size_t index) noexcept;
  [[nodiscard]] static Micros bucket_upper(std::size_t index) noexcept;

  mutable std::mutex mutex_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_{0};
  double sum_us_{0};
  Micros max_us_{0};
};

}  // namespace sbft
