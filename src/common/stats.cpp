#include "common/stats.hpp"

#include <algorithm>
#include <bit>
#include <limits>

namespace sbft {

// ------------------------------------------------------- LatencyHistogram

LatencyHistogram::LatencyHistogram() : counts_(kBucketCount, 0) {}

std::size_t LatencyHistogram::bucket_index(Micros v) noexcept {
  if (v < kLinear) return static_cast<std::size_t>(v);
  const unsigned msb = 63 - static_cast<unsigned>(std::countl_zero(v));
  const std::uint64_t sub = (v >> (msb - 4)) & (kSubBuckets - 1);
  return static_cast<std::size_t>(kLinear + (msb - 7) * kSubBuckets + sub);
}

Micros LatencyHistogram::bucket_lower(std::size_t index) noexcept {
  if (index < kLinear) return static_cast<Micros>(index);
  const std::uint64_t i = index - kLinear;
  const unsigned msb = static_cast<unsigned>(7 + i / kSubBuckets);
  const std::uint64_t sub = i % kSubBuckets;
  return (Micros{1} << msb) + (sub << (msb - 4));
}

Micros LatencyHistogram::bucket_upper(std::size_t index) noexcept {
  if (index < kLinear) return static_cast<Micros>(index) + 1;
  const std::uint64_t i = index - kLinear;
  const unsigned msb = static_cast<unsigned>(7 + i / kSubBuckets);
  const Micros upper = bucket_lower(index) + (Micros{1} << (msb - 4));
  // The topmost bucket's exclusive upper bound is 2^64, which wraps to 0:
  // saturate so lower < upper holds for every bucket.
  return upper == 0 ? std::numeric_limits<Micros>::max() : upper;
}

void LatencyHistogram::record(Micros sample_us) {
  const std::size_t index = bucket_index(sample_us);
  const std::scoped_lock lock(mutex_);
  ++counts_[index];
  ++total_;
  sum_us_ += static_cast<double>(sample_us);
  if (sample_us > max_us_) max_us_ = sample_us;
}

Micros LatencyHistogram::quantile(double q) const {
  const std::scoped_lock lock(mutex_);
  if (total_ == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  const auto target = static_cast<std::uint64_t>(
      q * static_cast<double>(total_ - 1) + 0.5);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    seen += counts_[i];
    if (counts_[i] != 0 && seen > target) {
      // Midpoint without overflow: lower + upper can exceed 2^64 for the
      // high buckets even though each bound fits.
      const Micros lower = bucket_lower(i);
      const Micros upper = bucket_upper(i);
      return lower + (upper - lower - 1) / 2;
    }
  }
  return max_us_;
}

std::uint64_t LatencyHistogram::count() const {
  const std::scoped_lock lock(mutex_);
  return total_;
}

double LatencyHistogram::mean_us() const {
  const std::scoped_lock lock(mutex_);
  return total_ ? sum_us_ / static_cast<double>(total_) : 0.0;
}

Micros LatencyHistogram::max_us() const {
  const std::scoped_lock lock(mutex_);
  return max_us_;
}

std::vector<LatencyHistogram::Bucket> LatencyHistogram::buckets() const {
  const std::scoped_lock lock(mutex_);
  std::vector<Bucket> out;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] == 0) continue;
    out.push_back(Bucket{bucket_lower(i), bucket_upper(i), counts_[i]});
  }
  return out;
}

LatencySummary LatencyHistogram::summarize() const {
  LatencySummary s;
  s.count = static_cast<std::size_t>(count());
  s.mean_us = mean_us();
  s.p50_us = quantile(0.50);
  s.p95_us = quantile(0.95);
  s.p99_us = quantile(0.99);
  s.max_us = max_us();
  return s;
}

void LatencyHistogram::reset() {
  const std::scoped_lock lock(mutex_);
  std::fill(counts_.begin(), counts_.end(), 0);
  total_ = 0;
  sum_us_ = 0;
  max_us_ = 0;
}

}  // namespace sbft
