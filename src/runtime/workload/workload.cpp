#include "runtime/workload/workload.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "apps/kv_store.hpp"

namespace sbft::runtime::workload {

const char* to_string(Stack s) noexcept {
  switch (s) {
    case Stack::Pbft:
      return "pbft";
    case Stack::Splitbft:
      return "splitbft";
  }
  return "?";
}

const char* to_string(LoadMode m) noexcept {
  switch (m) {
    case LoadMode::Closed:
      return "closed";
    case LoadMode::Open:
      return "open";
  }
  return "?";
}

// ----------------------------------------------------------------- zipf

namespace {

[[nodiscard]] double zeta(std::uint64_t n, double theta) {
  // Exact up to a cap, then the Euler-Maclaurin tail approximation — the
  // constant matters much less than the shape, and key spaces can be huge.
  constexpr std::uint64_t kExact = 100'000;
  double sum = 0;
  const std::uint64_t exact = std::min(n, kExact);
  for (std::uint64_t i = 1; i <= exact; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i), theta);
  }
  if (n > exact) {
    const double a = static_cast<double>(exact);
    const double b = static_cast<double>(n);
    sum += (std::pow(b, 1 - theta) - std::pow(a, 1 - theta)) / (1 - theta);
  }
  return sum;
}

}  // namespace

ZipfGenerator::ZipfGenerator(std::uint64_t n, double theta)
    : n_(std::max<std::uint64_t>(n, 1)), theta_(theta) {
  if (theta_ <= 0) return;  // uniform
  zetan_ = zeta(n_, theta_);
  const double zeta2 = zeta(2, theta_);
  alpha_ = 1.0 / (1.0 - theta_);
  eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n_), 1.0 - theta_)) /
         (1.0 - zeta2 / zetan_);
}

std::uint64_t ZipfGenerator::next(Rng& rng) {
  if (theta_ <= 0) return rng.below(n_);
  const double u = rng.unit();
  const double uz = u * zetan_;
  if (uz < 1.0) return 0;
  if (uz < 1.0 + std::pow(0.5, theta_)) return 1;
  const auto rank = static_cast<std::uint64_t>(
      static_cast<double>(n_) *
      std::pow(eta_ * u - eta_ + 1.0, alpha_));
  return std::min(rank, n_ - 1);
}

// ------------------------------------------------------------ op stream

std::vector<Bytes> group_keys(const Options& options, std::uint64_t group) {
  std::vector<Bytes> keys;
  keys.reserve(options.multi_keys);
  const std::uint64_t base =
      options.key_space + group * options.multi_keys;
  for (std::uint32_t j = 0; j < options.multi_keys; ++j) {
    keys.push_back(apps::kv::encode_key(base + j));
  }
  return keys;
}

OpGenerator::OpGenerator(const Options& options, std::uint64_t client_seed)
    : zipf_(options.key_space, options.key_skew),
      get_fraction_(options.get_fraction),
      cas_fraction_(options.cas_fraction),
      del_fraction_(options.del_fraction),
      value_min_(options.value_min_bytes),
      value_max_(std::max(options.value_max_bytes, options.value_min_bytes)),
      multi_fraction_(options.multi_keys >= 2 ? options.cross_shard_fraction
                                              : 0.0),
      multi_keys_(options.multi_keys),
      multi_groups_(std::max<std::uint64_t>(options.multi_groups, 1)),
      group_base_(options.key_space),
      rng_(client_seed) {}

Bytes OpGenerator::next_value() {
  const std::size_t len =
      value_min_ +
      (value_max_ > value_min_
           ? rng_.below(value_max_ - value_min_ + 1)
           : 0);
  return rng_.bytes(len);
}

GeneratedOp OpGenerator::next_multi() {
  // Whole-group write with ONE (random, effectively unique) value: at
  // quiescence every key of a group must hold the same bytes, whichever
  // transaction won — the torn-write detector benches rely on.
  const std::uint64_t group = rng_.below(multi_groups_);
  const Bytes value = next_value();
  apps::kv::MultiOp multi;
  const std::uint64_t base = group_base_ + group * multi_keys_;
  for (std::uint32_t j = 0; j < multi_keys_; ++j) {
    multi.subs.push_back(apps::kv::SubOp{apps::KvOp::Put,
                                         apps::kv::encode_key(base + j),
                                         {},
                                         value});
  }
  return {apps::kv::encode_multi(multi), /*read_only=*/false};
}

GeneratedOp OpGenerator::next() {
  if (multi_fraction_ > 0 && rng_.chance(multi_fraction_)) {
    return next_multi();
  }
  const Bytes key = apps::kv::encode_key(zipf_.next(rng_));
  if (rng_.chance(get_fraction_)) {
    return {apps::kv::encode_get(key), /*read_only=*/true};
  }
  const double w = rng_.unit();
  if (w < cas_fraction_) {
    return {apps::kv::encode_cas(key, next_value(), next_value()),
            /*read_only=*/false};
  }
  if (w < cas_fraction_ + del_fraction_) {
    return {apps::kv::encode_del(key), /*read_only=*/false};
  }
  return {apps::kv::encode_put(key, next_value()), /*read_only=*/false};
}

crypto::Key32 session_key(std::uint64_t seed, ClientId client) {
  Bytes context(4);
  for (int i = 0; i < 4; ++i) {
    context[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(client >> (8 * i));
  }
  Bytes master(8);
  for (int i = 0; i < 8; ++i) {
    master[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(seed >> (8 * i));
  }
  return crypto::derive_key(master, "workload-session", context);
}

Micros exponential_us(Rng& rng, Micros mean_us) {
  if (mean_us == 0) return 0;
  // Inverse CDF; clamp the argument away from 0 so log() stays finite.
  const double u = std::max(rng.unit(), 1e-12);
  const double d = -std::log(u) * static_cast<double>(mean_us);
  return static_cast<Micros>(d);
}

// ----------------------------------------------------------------- audit

void audit_groups(const Options& options,
                  const std::function<std::optional<Bytes>(Bytes)>& execute,
                  Report::ShardingCounters& counters) {
  for (std::uint64_t g = 0; g < options.multi_groups; ++g) {
    bool first = true;
    bool torn = false;
    Bytes reference;
    for (const auto& key : group_keys(options, g)) {
      const auto result = execute(apps::kv::encode_get(key));
      if (!result) {
        torn = true;  // an unreadable key fails loudly, not silently
        break;
      }
      // Compare full replies so NotFound vs an empty value differ.
      if (first) {
        reference = *result;
        first = false;
      } else if (*result != reference) {
        torn = true;
        break;
      }
    }
    ++counters.groups_checked;
    if (torn) ++counters.torn_groups;
  }
}

// ---------------------------------------------------------------- report

void summarize_into(const LatencyHistogram& hist, Micros measure_us,
                    Report& report) {
  report.completed_ops = hist.count();
  report.ops_per_sec =
      measure_us ? static_cast<double>(report.completed_ops) /
                       (static_cast<double>(measure_us) / 1e6)
                 : 0;
  report.mean_latency_ms = hist.mean_us() / 1000.0;
  report.p50_us = hist.quantile(0.50);
  report.p95_us = hist.quantile(0.95);
  report.p99_us = hist.quantile(0.99);
  report.max_us = hist.max_us();
  report.histogram = hist.buckets();
}

std::string report_json(const Options& options, const Report& report) {
  std::ostringstream os;
  os << "{"
     << "\"stack\": \"" << to_string(options.stack) << "\", "
     << "\"mode\": \"" << to_string(options.mode) << "\", "
     << "\"clients\": " << options.clients << ", "
     << "\"pipeline_depth\": " << options.protocol.pipeline_depth << ", "
     << "\"batch_max\": " << options.protocol.batch_max << ", "
     << "\"key_space\": " << options.key_space << ", "
     << "\"key_skew\": " << options.key_skew << ", "
     << "\"get_fraction\": " << options.get_fraction << ", "
     << "\"cas_fraction\": " << options.cas_fraction << ", "
     << "\"del_fraction\": " << options.del_fraction << ", "
     << "\"shards\": " << options.shards << ", "
     << "\"cross_shard_fraction\": " << options.cross_shard_fraction << ", "
     << "\"multi_keys\": " << options.multi_keys << ", "
     << "\"read_path\": " << (options.protocol.read_path ? "true" : "false")
     << ", "
     << "\"workers\": " << options.workers << ", "
     << "\"auto_tune\": " << (options.protocol.auto_tune ? "true" : "false")
     << ", "
     << "\"admission_queue_cap\": " << options.protocol.admission_queue_cap
     << ", "
     << "\"measure_us\": " << options.measure_us << ", "
     << "\"completed_ops\": " << report.completed_ops << ", "
     << "\"fast_reads\": " << report.fast_reads << ", "
     << "\"read_fallbacks\": " << report.read_fallbacks << ", "
     << "\"admission_rejects\": " << report.admission_rejects << ", "
     << "\"ops_per_sec\": " << report.ops_per_sec << ", "
     << "\"mean_latency_ms\": " << report.mean_latency_ms << ", "
     << "\"p50_us\": " << report.p50_us << ", "
     << "\"p95_us\": " << report.p95_us << ", "
     << "\"p99_us\": " << report.p99_us << ", "
     << "\"max_us\": " << report.max_us << ", "
     << "\"sustained\": " << (report.sustained ? "true" : "false") << ", "
     << "\"sharding\": {"
     << "\"multi_ops\": " << report.sharding.multi_ops << ", "
     << "\"single_shard_multi\": " << report.sharding.single_shard_multi
     << ", "
     << "\"cross_shard_tx\": " << report.sharding.cross_shard_tx << ", "
     << "\"tx_commits\": " << report.sharding.tx_commits << ", "
     << "\"tx_aborts\": " << report.sharding.tx_aborts << ", "
     << "\"busy_retries\": " << report.sharding.busy_retries << ", "
     << "\"groups_checked\": " << report.sharding.groups_checked << ", "
     << "\"torn_groups\": " << report.sharding.torn_groups
     << "}, "
     << "\"transport\": {"
     << "\"bytes_in\": " << report.transport.bytes_in << ", "
     << "\"bytes_out\": " << report.transport.bytes_out << ", "
     << "\"frames_in\": " << report.transport.frames_in << ", "
     << "\"frames_out\": " << report.transport.frames_out << ", "
     << "\"writev_calls\": " << report.transport.writev_calls << ", "
     << "\"frames_per_writev\": " << report.transport.frames_per_writev << ", "
     << "\"reconnects\": " << report.transport.reconnects << ", "
     << "\"backpressure_drops\": " << report.transport.backpressure_drops
     << ", "
     << "\"state_frames_in\": " << report.transport.state_frames_in << ", "
     << "\"state_frames_out\": " << report.transport.state_frames_out << ", "
     << "\"state_bytes_in\": " << report.transport.state_bytes_in << ", "
     << "\"state_bytes_out\": " << report.transport.state_bytes_out
     << "}, "
     << "\"histogram\": [";
  for (std::size_t i = 0; i < report.histogram.size(); ++i) {
    const auto& b = report.histogram[i];
    if (i) os << ", ";
    os << "[" << b.lower_us << ", " << b.upper_us << ", " << b.count << "]";
  }
  os << "]}";
  return os.str();
}

}  // namespace sbft::runtime::workload
